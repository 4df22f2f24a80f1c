//! The multiplexing client: many in-flight requests over one socket.
//!
//! A background reader thread parses reply lines and routes each to its
//! waiter by the echoed correlation id; submitting threads block (or poll)
//! on their own [`Pending`] handle. One `MuxClient` is `Clone` + `Send`, so
//! a whole thread pool can share a single connection — the server fair-queues
//! all of it under one connection identity unless requests name a
//! `client_id`.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use qsync_api::{
    DeltaRequest, DeltaResponse, MetricsSnapshot, PlanRequest, PlanResponse, ServerCommand,
    ServerEvent, ServerReply, TraceSpan, MAX_PROTOCOL_VERSION, MIN_PROTOCOL_VERSION,
};

use crate::client::{LoadInfo, ResyncSnapshot, SnapshotBlob, SnapshotInfo, StatsSnapshot};
use crate::error::{ClientError, Result};
use crate::raw::parse_reply_line;

/// One in-flight request's reply slot.
#[derive(Default)]
struct Slot {
    reply: Mutex<Option<Result<ServerReply>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, reply: Result<ServerReply>) {
        *self.reply.lock().expect("reply slot poisoned") = Some(reply);
        self.ready.notify_all();
    }
}

/// Shared state between submitters and the reader thread.
struct MuxState {
    /// Correlation id → waiting slot.
    waiters: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Live event subscription's bounded buffer, if any.
    events: Mutex<Option<Arc<EventBuffer>>>,
    next_id: AtomicU64,
    /// Set once the reader thread exits. The first write to a dead socket
    /// can still land in the kernel buffer (the error only surfaces on a
    /// *later* write), so without this flag a request submitted after EOF
    /// would register a waiter no reader will ever fill and block forever.
    closed: AtomicBool,
}

impl MuxState {
    /// Fail every waiter and end the event stream (reader exit path).
    fn poison_all(&self) {
        // Order matters: raise `closed` before draining, so a racing
        // `submit` either observes the flag or its waiter is in the drain.
        self.closed.store(true, Ordering::SeqCst);
        let waiters = std::mem::take(&mut *self.waiters.lock().expect("waiter map poisoned"));
        for slot in waiters.into_values() {
            slot.fill(Err(ClientError::Closed));
        }
        if let Some(buffer) = self.events.lock().expect("event buffer poisoned").take() {
            buffer.close();
        }
    }
}

/// Default capacity of a subscription's withheld-event buffer (see
/// [`MuxClient::subscribe_with_capacity`]).
pub const DEFAULT_EVENT_BUFFER: usize = 1024;

/// The bounded hand-off between the reader thread and an [`EventStream`].
///
/// A consumer that stops calling [`EventStream::next`] must not make the
/// client grow without bound, so the buffer holds at most `cap` events: on
/// overflow the whole stash is discarded and only the newest event is kept —
/// the sequence discontinuity then surfaces to the consumer as an
/// [`EventItem::Gap`], exactly as if the *server* had shed the events
/// (`Resync` semantics: gaps are explicit, recovery is a resync, and the
/// freshest state wins over a stale backlog).
struct EventBuffer {
    cap: usize,
    queue: Mutex<EventQueue>,
    ready: Condvar,
}

#[derive(Default)]
struct EventQueue {
    items: VecDeque<(u64, ServerEvent)>,
    closed: bool,
}

impl EventBuffer {
    fn new(cap: usize) -> EventBuffer {
        EventBuffer { cap: cap.max(1), queue: Mutex::new(EventQueue::default()), ready: Condvar::new() }
    }

    /// Reader-thread side: enqueue, shedding the stash on overflow.
    fn push(&self, seq: u64, event: ServerEvent) {
        let mut queue = self.queue.lock().expect("event buffer poisoned");
        if queue.closed {
            return;
        }
        if queue.items.len() >= self.cap {
            queue.items.clear();
        }
        queue.items.push_back((seq, event));
        self.ready.notify_all();
    }

    /// End the stream: wake every blocked consumer; later pushes are no-ops.
    fn close(&self) {
        self.queue.lock().expect("event buffer poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Consumer side: block until an event or the close; `None` on close
    /// (buffered events drain first).
    fn pop(&self) -> Option<(u64, ServerEvent)> {
        let mut queue = self.queue.lock().expect("event buffer poisoned");
        loop {
            if let Some(item) = queue.items.pop_front() {
                return Some(item);
            }
            if queue.closed {
                return None;
            }
            queue = self.ready.wait(queue).expect("event buffer poisoned");
        }
    }

    /// [`pop`](EventBuffer::pop) with a deadline; `None` on close or timeout.
    fn pop_timeout(&self, timeout: Duration) -> Option<(u64, ServerEvent)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut queue = self.queue.lock().expect("event buffer poisoned");
        loop {
            if let Some(item) = queue.items.pop_front() {
                return Some(item);
            }
            if queue.closed {
                return None;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(queue, deadline - now)
                .expect("event buffer poisoned");
            queue = guard;
        }
    }
}

/// Connection ownership: shuts the socket down on drop so the reader thread
/// exits even if it is blocked on a read.
struct MuxInner {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    state: Arc<MuxState>,
    server_versions: (u32, u32),
    server_ident: String,
}

impl Drop for MuxInner {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// A handle to one reply, filled by the reader thread.
///
/// Dropping a `Pending` abandons the reply (it is discarded on arrival).
pub struct Pending<T> {
    slot: Arc<Slot>,
    id: u64,
    state: Arc<MuxState>,
    convert: fn(ServerReply) -> Result<T>,
}

impl<T> Pending<T> {
    /// The connection-unique correlation id of this request (usable with
    /// [`MuxClient::cancel`] while the reply has not arrived).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the reply arrives.
    pub fn wait(self) -> Result<T> {
        let mut reply = self.slot.reply.lock().expect("reply slot poisoned");
        loop {
            if let Some(outcome) = reply.take() {
                return outcome.and_then(self.convert);
            }
            reply = self.slot.ready.wait(reply).expect("reply slot poisoned");
        }
    }

    /// Block up to `timeout` for the reply; `Err(Io(TimedOut))` if it does
    /// not arrive in time (the request stays in flight — the reply will be
    /// discarded on arrival).
    pub fn wait_timeout(self, timeout: Duration) -> Result<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut reply = self.slot.reply.lock().expect("reply slot poisoned");
        loop {
            if let Some(outcome) = reply.take() {
                return outcome.and_then(self.convert);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                drop(reply);
                self.state.waiters.lock().expect("waiter map poisoned").remove(&self.id);
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no reply within the wait timeout",
                )));
            }
            let (guard, _) = self
                .slot
                .ready
                .wait_timeout(reply, deadline - now)
                .expect("reply slot poisoned");
            reply = guard;
        }
    }
}

/// One item of a subscription's event stream: a live event, or an explicit
/// marker for events the server dropped (slow consumer) or this client
/// otherwise missed.
// `Event` dwarfs `Gap` since events grew adoption payloads; items are
// consumed immediately off the stream, so the transient size is fine and
// boxing would cost an allocation per delivered event.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum EventItem {
    /// A live event with its server-assigned sequence number.
    Event {
        /// The server's monotone event sequence number.
        seq: u64,
        /// The event itself.
        event: ServerEvent,
    },
    /// The stream skipped from `expected` to `got`: `got - expected` events
    /// never arrived (the server sheds events to subscribers whose outbox
    /// exceeds its cap). Recover with [`MuxClient::resync`] +
    /// [`EventStream::reset_baseline`].
    Gap {
        /// The sequence number the stream expected next.
        expected: u64,
        /// The sequence number that actually arrived (its event is delivered
        /// by the next call).
        got: u64,
    },
}

impl EventItem {
    /// The missed-event count of a gap item (0 for a live event).
    pub fn missed(&self) -> u64 {
        match self {
            EventItem::Event { .. } => 0,
            EventItem::Gap { expected, got } => got - expected,
        }
    }
}

/// Sequence bookkeeping of one event stream.
#[derive(Default)]
struct GapState {
    /// The next expected seq; `None` until the first event (a subscriber
    /// joining mid-stream starts at whatever seq arrives first) or an
    /// explicit [`EventStream::reset_baseline`].
    expected: Option<u64>,
    /// An event withheld while its preceding gap is delivered.
    pending: Option<(u64, ServerEvent)>,
}

/// A subscription's event receiver (see [`MuxClient::subscribe`]).
///
/// Sequence numbers are checked: when the server drops events for this
/// subscriber (slow consumer) the hole surfaces as an explicit
/// [`EventItem::Gap`] before the stream resumes.
///
/// The stream's client-side buffer is bounded
/// ([`DEFAULT_EVENT_BUFFER`] unless set via
/// [`MuxClient::subscribe_with_capacity`]): if the consumer falls more than
/// the capacity behind, the buffered backlog is discarded and the loss
/// surfaces as a [`Gap`](EventItem::Gap) too — same semantics, shed one hop
/// earlier.
pub struct EventStream {
    buffer: Arc<EventBuffer>,
    gaps: Mutex<GapState>,
}

impl EventStream {
    /// Block for the next item; `None` once the connection closes or the
    /// subscription is replaced.
    pub fn next(&self) -> Option<EventItem> {
        let mut gaps = self.gaps.lock().expect("gap state poisoned");
        if let Some(item) = Self::take_pending(&mut gaps) {
            return Some(item);
        }
        let (seq, event) = self.buffer.pop()?;
        Some(Self::account(&mut gaps, seq, event))
    }

    /// Block up to `timeout` for the next item.
    pub fn next_timeout(&self, timeout: Duration) -> Option<EventItem> {
        let mut gaps = self.gaps.lock().expect("gap state poisoned");
        if let Some(item) = Self::take_pending(&mut gaps) {
            return Some(item);
        }
        let (seq, event) = self.buffer.pop_timeout(timeout)?;
        Some(Self::account(&mut gaps, seq, event))
    }

    /// Restart sequence tracking at `seq` — the baseline a
    /// [`MuxClient::resync`] returns. Events already re-delivered by the
    /// resync's key list may still arrive with a smaller seq; they are
    /// passed through without raising a gap.
    pub fn reset_baseline(&self, seq: u64) {
        let mut gaps = self.gaps.lock().expect("gap state poisoned");
        gaps.expected = Some(seq);
        gaps.pending = None;
    }

    fn take_pending(gaps: &mut GapState) -> Option<EventItem> {
        let (seq, event) = gaps.pending.take()?;
        gaps.expected = Some(seq + 1);
        Some(EventItem::Event { seq, event })
    }

    /// Fold one arriving `(seq, event)` into the stream: in-order events
    /// pass through; a skipped-ahead seq yields the gap first and withholds
    /// the event; a stale seq (below the resync baseline) passes through
    /// without moving the baseline.
    fn account(gaps: &mut GapState, seq: u64, event: ServerEvent) -> EventItem {
        match gaps.expected {
            Some(expected) if seq > expected => {
                gaps.pending = Some((seq, event));
                EventItem::Gap { expected, got: seq }
            }
            Some(expected) if seq < expected => EventItem::Event { seq, event },
            _ => {
                gaps.expected = Some(seq + 1);
                EventItem::Event { seq, event }
            }
        }
    }
}

/// A multiplexing protocol client: clone it across threads, submit many
/// requests, and every reply finds its submitter.
///
/// ```no_run
/// # use qsync_client::MuxClient;
/// # use qsync_api::{ModelSpec, PlanRequest};
/// # use qsync_cluster::topology::ClusterSpec;
/// # fn demo(addr: std::net::SocketAddr) -> qsync_client::Result<()> {
/// let client = MuxClient::connect(addr)?;
/// let a = client.submit_plan(PlanRequest::new(
///     0,
///     ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
///     ClusterSpec::hybrid_small(),
/// ))?;
/// let b = client.stats()?; // interleaves with the in-flight plan
/// let plan = a.wait()?;    // routed back by id
/// # let _ = (b, plan);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct MuxClient {
    inner: Arc<MuxInner>,
}

impl MuxClient {
    /// Connect, spawn the reader thread, and perform the `Hello` handshake.
    pub fn connect(addr: SocketAddr) -> Result<MuxClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let state = Arc::new(MuxState {
            waiters: Mutex::new(HashMap::new()),
            events: Mutex::new(None),
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
        });
        let reader = BufReader::new(stream.try_clone()?);
        {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("qsync-client-mux-reader".into())
                .spawn(move || reader_loop(reader, &state))
                .expect("spawn mux reader");
        }
        let mut client = MuxClient {
            inner: Arc::new(MuxInner {
                writer: Mutex::new(stream.try_clone()?),
                stream,
                state,
                server_versions: (MIN_PROTOCOL_VERSION, MAX_PROTOCOL_VERSION),
                server_ident: String::new(),
            }),
        };
        let hello = client
            .submit(
                |id| ServerCommand::Hello { id, min_v: MIN_PROTOCOL_VERSION, max_v: MAX_PROTOCOL_VERSION },
                Ok,
            )?
            .wait()?;
        if let ServerReply::Hello { min_v, max_v, server, .. } = hello {
            let inner = Arc::get_mut(&mut client.inner)
                .expect("no clones exist before connect returns");
            inner.server_versions = (min_v, max_v);
            inner.server_ident = server;
        }
        Ok(client)
    }

    /// The protocol range the server advertised at connect time.
    pub fn server_versions(&self) -> (u32, u32) {
        self.inner.server_versions
    }

    /// The server software identifier advertised at connect time.
    pub fn server_ident(&self) -> &str {
        &self.inner.server_ident
    }

    /// Register a waiter, build the command with the fresh id, and send it.
    fn submit<T>(
        &self,
        build: impl FnOnce(u64) -> ServerCommand,
        convert: fn(ServerReply) -> Result<T>,
    ) -> Result<Pending<T>> {
        let state = &self.inner.state;
        let id = state.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::default());
        state.waiters.lock().expect("waiter map poisoned").insert(id, Arc::clone(&slot));
        if state.closed.load(Ordering::SeqCst) {
            // Insert-then-check: if the reader exited before our insert we
            // see the flag; if it exits after, `poison_all` drains our slot.
            state.waiters.lock().expect("waiter map poisoned").remove(&id);
            return Err(ClientError::Closed);
        }
        let command = build(id);
        let envelope = qsync_api::RequestEnvelope::v1(command);
        let mut line = serde_json::to_string(&envelope).expect("envelope serializes");
        line.push('\n');
        let sent = {
            let mut writer = self.inner.writer.lock().expect("writer poisoned");
            writer.write_all(line.as_bytes())
        };
        if let Err(e) = sent {
            state.waiters.lock().expect("waiter map poisoned").remove(&id);
            return Err(ClientError::Io(e));
        }
        Ok(Pending { slot, id, state: Arc::clone(state), convert })
    }

    /// Submit a plan request; returns immediately with the [`Pending`]
    /// reply handle. The request's `id` is replaced with a
    /// connection-unique one (echoed in the response and usable with
    /// [`cancel`](MuxClient::cancel)).
    pub fn submit_plan(&self, request: PlanRequest) -> Result<Pending<PlanResponse>> {
        self.submit(
            move |id| ServerCommand::Plan(PlanRequest { id, ..request }),
            |reply| match reply {
                ServerReply::Plan(response) => Ok(response),
                other => Err(unexpected("Plan", &other)),
            },
        )
    }

    /// Request a plan and block for the response.
    pub fn plan(&self, request: PlanRequest) -> Result<PlanResponse> {
        self.submit_plan(request)?.wait()
    }

    /// Submit a cluster delta; returns immediately with the reply handle.
    pub fn submit_delta(&self, request: DeltaRequest) -> Result<Pending<DeltaResponse>> {
        self.submit(
            move |id| ServerCommand::Delta(DeltaRequest { id, ..request }),
            |reply| match reply {
                ServerReply::Delta(response) => Ok(response),
                other => Err(unexpected("Delta", &other)),
            },
        )
    }

    /// Apply a cluster delta and block for the outcome.
    pub fn delta(&self, request: DeltaRequest) -> Result<DeltaResponse> {
        self.submit_delta(request)?.wait()
    }

    /// Read the server's counters.
    pub fn stats(&self) -> Result<StatsSnapshot> {
        self.submit(
            |id| ServerCommand::Stats { id },
            |reply| match reply {
                ServerReply::Stats { stats, sched, deltas, subscribers, .. } => {
                    Ok(StatsSnapshot { cache: stats, sched, deltas, subscribers })
                }
                other => Err(unexpected("Stats", &other)),
            },
        )?
        .wait()
    }

    /// Read the server's full metrics snapshot (counters, gauges and latency
    /// histograms across transport, scheduler, engine and delta pipeline).
    pub fn metrics(&self) -> Result<MetricsSnapshot> {
        self.submit(
            |id| ServerCommand::Metrics { id },
            |reply| match reply {
                ServerReply::Metrics { metrics, .. } => Ok(metrics),
                other => Err(unexpected("Metrics", &other)),
            },
        )?
        .wait()
    }

    /// Fetch the recorded spans of one request's trace (oldest first). The
    /// trace id is echoed in [`PlanResponse::trace_id`] — or chosen by the
    /// caller via [`PlanRequest::trace_id`].
    pub fn trace(&self, trace_id: u64, limit: Option<usize>) -> Result<Vec<TraceSpan>> {
        self.submit(
            move |id| ServerCommand::Trace { id, trace_id, limit },
            |reply| match reply {
                ServerReply::Trace { spans, .. } => Ok(spans),
                other => Err(unexpected("Trace", &other)),
            },
        )?
        .wait()
    }

    /// Recover from dropped events: returns the authoritative cache state,
    /// an event-seq baseline (feed it to [`EventStream::reset_baseline`]),
    /// and resets this connection's dropped counter.
    pub fn resync(&self) -> Result<ResyncSnapshot> {
        self.submit(
            |id| ServerCommand::Resync { id },
            |reply| match reply {
                ServerReply::Resynced { seq, keys, dropped, .. } => {
                    Ok(ResyncSnapshot { seq, keys, dropped })
                }
                other => Err(unexpected("Resync", &other)),
            },
        )?
        .wait()
    }

    /// Cancel a still-queued plan by its [`Pending::id`]. Returns whether it
    /// was still queued and has been removed — in which case the server will
    /// never reply to it, so the plan's waiter is deregistered here and its
    /// `Pending` resolves to [`ClientError::Cancelled`].
    pub fn cancel(&self, plan_id: u64) -> Result<bool> {
        let cancelled = self
            .submit(
                move |id| ServerCommand::Cancel { id, plan_id },
                |reply| match reply {
                    ServerReply::Cancelled { cancelled, .. } => Ok(cancelled),
                    other => Err(unexpected("Cancel", &other)),
                },
            )?
            .wait()?;
        if cancelled {
            // No reply will ever arrive for the cancelled plan: release its
            // waiter now instead of leaking the slot (and any blocked
            // `Pending::wait`) for the life of the connection.
            let waiter =
                self.inner.state.waiters.lock().expect("waiter map poisoned").remove(&plan_id);
            if let Some(slot) = waiter {
                slot.fill(Err(ClientError::Cancelled));
            }
        }
        Ok(cancelled)
    }

    /// Subscribe to the server's event stream. Events flow into the returned
    /// [`EventStream`] from the moment the server confirms the subscription;
    /// a later `subscribe` replaces (and ends) the previous stream. The
    /// stream's buffer holds [`DEFAULT_EVENT_BUFFER`] events.
    pub fn subscribe(&self) -> Result<EventStream> {
        self.subscribe_with_capacity(DEFAULT_EVENT_BUFFER)
    }

    /// [`subscribe`](MuxClient::subscribe) with an explicit buffer capacity
    /// (clamped to at least 1). A consumer that falls more than `cap` events
    /// behind loses the buffered backlog and sees an
    /// [`EventItem::Gap`] — size the buffer for the burstiness you expect.
    pub fn subscribe_with_capacity(&self, cap: usize) -> Result<EventStream> {
        self.subscribe_inner(cap, false)
    }

    /// [`subscribe`](MuxClient::subscribe) with adoption payloads: the
    /// server's `Replanned`/`PlanReady` events carry the full cached-plan
    /// payload ([`qsync_api::PlanPayload`]) on this connection, so a replica
    /// can mirror the primary's cache entries byte-for-byte instead of
    /// re-planning. Payload lines are large — size consumption accordingly.
    pub fn subscribe_adopt(&self) -> Result<EventStream> {
        self.subscribe_inner(DEFAULT_EVENT_BUFFER, true)
    }

    fn subscribe_inner(&self, cap: usize, adopt: bool) -> Result<EventStream> {
        let buffer = Arc::new(EventBuffer::new(cap));
        let previous = self
            .inner
            .state
            .events
            .lock()
            .expect("event buffer poisoned")
            .replace(Arc::clone(&buffer));
        if let Some(old) = previous {
            old.close();
        }
        self.submit(
            move |id| ServerCommand::Subscribe { id, adopt },
            |reply| match reply {
                ServerReply::Subscribed { .. } => Ok(()),
                other => Err(unexpected("Subscribe", &other)),
            },
        )?
        .wait()?;
        Ok(EventStream { buffer, gaps: Mutex::new(GapState::default()) })
    }

    /// Ask the server to persist its plan store. `path: None` writes to the
    /// server's configured `--store` path (a fault if it has none).
    pub fn snapshot(&self, path: Option<String>) -> Result<SnapshotInfo> {
        self.submit(
            move |id| ServerCommand::Snapshot { id, path },
            |reply| match reply {
                ServerReply::Snapshotted { path, entries, bytes, .. } => {
                    Ok(SnapshotInfo { path, entries, bytes })
                }
                other => Err(unexpected("Snapshot", &other)),
            },
        )?
        .wait()
    }

    /// Ask the server to verify and merge a snapshot file into its plan
    /// cache. `path: None` reads the configured `--store` path.
    pub fn load(&self, path: Option<String>) -> Result<LoadInfo> {
        self.submit(
            move |id| ServerCommand::Load { id, path },
            |reply| match reply {
                ServerReply::Loaded { path, plans, skipped, bytes, .. } => {
                    Ok(LoadInfo { path, plans, skipped, bytes })
                }
                other => Err(unexpected("Load", &other)),
            },
        )?
        .wait()
    }

    /// Fetch the server's full plan store over the wire — the replication
    /// bootstrap. The returned blob verifies and loads exactly like a
    /// snapshot file.
    pub fn fetch_snapshot(&self) -> Result<SnapshotBlob> {
        self.submit(
            |id| ServerCommand::FetchSnapshot { id },
            |reply| match reply {
                ServerReply::SnapshotData { entries, bytes, data, .. } => {
                    Ok(SnapshotBlob { entries, bytes, data })
                }
                other => Err(unexpected("FetchSnapshot", &other)),
            },
        )?
        .wait()
    }
}

/// Reader-thread body: route every reply line to its waiter (or the event
/// stream), then poison the remaining waiters on EOF or transport error.
fn reader_loop(reader: BufReader<TcpStream>, state: &MuxState) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_reply_line(&line) {
            Ok(reply) => reply,
            // A server that emits unparseable lines is broken: stop routing.
            Err(_) => break,
        };
        if let ServerReply::Event { seq, event } = reply {
            let buffer =
                state.events.lock().expect("event buffer poisoned").as_ref().map(Arc::clone);
            if let Some(buffer) = buffer {
                buffer.push(seq, event);
            }
            continue;
        }
        let Some(id) = reply.correlation_id() else {
            // An id-less fault (e.g. to a malformed line) cannot be routed;
            // surface nothing — submit-side serialization makes these
            // unreachable for well-formed clients.
            continue;
        };
        let waiter = state.waiters.lock().expect("waiter map poisoned").remove(&id);
        if let Some(slot) = waiter {
            if let Some(error) = reply.as_error() {
                slot.fill(Err(ClientError::Api(error)));
            } else {
                slot.fill(Ok(reply));
            }
        }
    }
    state.poison_all();
}

fn unexpected(wanted: &str, got: &ServerReply) -> ClientError {
    ClientError::Protocol(format!("expected a {wanted} reply, got {got:?}"))
}
