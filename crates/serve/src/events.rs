//! The event stream: who is subscribed, the server-wide sequence number, and
//! the fan-out with its slow-consumer accounting.
//!
//! Events are droppable server push, replies are not: a subscriber whose
//! un-flushed bytes exceed [`TransportConfig::event_outbox_cap`](crate::TransportConfig)
//! loses the event instead of growing server memory with every delta wave.
//! The loss shows to that client as a gap in the monotone `seq`, is counted
//! per subscriber (`Stats`/`Metrics`) and is recoverable through `Resync`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qsync_api::{PlanPayload, ServerEvent, ServerReply, SubscriberStats, WireProto};
use qsync_obs::{CounterValue, GaugeValue, MetricsSnapshot};

use crate::engine::PlanEngine;
use crate::server::ConnState;

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
    /// same events, same `seq`, with the payload left out.
    adopt: bool,
}

/// A core's event stream.
pub(crate) struct EventHub {
    /// Source of adoption payloads (its cache) and of the event counters.
    engine: Arc<PlanEngine>,
    /// Subscribers by connection id.
    subscribers: Mutex<HashMap<u64, Subscriber>>,
    /// Server-wide monotone event sequence.
    seq: AtomicU64,
    /// Un-flushed bytes beyond which a subscriber stops receiving events.
    outbox_cap: usize,
}

impl EventHub {
    pub(crate) fn new(engine: Arc<PlanEngine>, outbox_cap: usize) -> Self {
        EventHub { engine, subscribers: Mutex::new(HashMap::new()), seq: AtomicU64::new(0), outbox_cap }
    }

    fn subscribers(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Subscriber>> {
        self.subscribers.lock().expect("subscriber map poisoned")
    }

    /// Start (or restart, zeroing its drop count) `conn`'s subscription.
    pub(crate) fn subscribe(&self, conn: &Arc<ConnState>, wire: WireProto, adopt: bool) {
        let subscriber = Subscriber { wire, conn: Arc::clone(conn), dropped: 0, adopt };
        self.subscribers().insert(conn.id(), subscriber);
    }

    /// End a connection's subscription, if it has one.
    pub(crate) fn unsubscribe(&self, conn_id: u64) {
        self.subscribers().remove(&conn_id);
    }

    /// The sequence number the next event will carry.
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Read and reset a connection's dropped-event count (0 if it is not
    /// subscribed).
    pub(crate) fn take_dropped(&self, conn_id: u64) -> u64 {
        self.subscribers().get_mut(&conn_id).map(|sub| std::mem::take(&mut sub.dropped)).unwrap_or(0)
    }

    /// Per-subscriber event accounting (for `Stats` and the metrics
    /// snapshot), in connection-id order.
    pub(crate) fn stats(&self) -> Vec<SubscriberStats> {
        let mut stats: Vec<SubscriberStats> = self
            .subscribers()
            .iter()
            .map(|(&conn, sub)| SubscriberStats { conn, dropped: sub.dropped })
            .collect();
        stats.sort_by_key(|s| s.conn);
        stats
    }

    /// Append the subscriber gauge and per-subscriber drop counters.
    pub(crate) fn append_metrics(&self, snap: &mut MetricsSnapshot) {
        let subscribers = self.stats();
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
    }

    /// Send one event to every subscriber with room for it, under one `seq`
    /// and one hold of the subscriber map. Callers pass `Replanned` and
    /// `PlanReady` with `adopt: None`; the payload is attached here, and only
    /// when a subscriber asked for payloads — it clones the whole cached
    /// plan, which nobody should pay for when nobody is following.
    pub(crate) fn broadcast(&self, event: ServerEvent) {
        let obs = self.engine.obs();
        let mut subscribers = self.subscribers();
        if subscribers.is_empty() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let with_payload =
            subscribers.values().any(|sub| sub.adopt).then(|| self.with_adopt(event.clone()));
        for sub in subscribers.values_mut() {
            if sub.conn.event_capacity_ok(self.outbox_cap) {
                obs.events_emitted.inc();
                let event = match &with_payload {
                    Some(full) if sub.adopt => full.clone(),
                    _ => event.clone(),
                };
                sub.conn.send(sub.wire, &ServerReply::Event { seq, event });
            } else {
                sub.dropped += 1;
                obs.events_dropped.inc();
            }
        }
    }

    /// `event` with its adoption payload filled in: the cached entry under
    /// the event's key, cloned (left `None` if it was already evicted again,
    /// and on events that carry no payload).
    fn with_adopt(&self, mut event: ServerEvent) -> ServerEvent {
        if let ServerEvent::Replanned { key, adopt, .. } | ServerEvent::PlanReady { key, adopt, .. } =
            &mut event
        {
            *adopt = self.engine.cache().peek(key).map(|entry| PlanPayload {
                request: entry.request,
                response: entry.response,
                inference_pdag: entry.inference_pdag,
            });
        }
        event
    }
}
