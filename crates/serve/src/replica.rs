//! Primary → replica cache shipping: the follower that mirrors a primary's
//! plan cache into a local [`PlanEngine`].
//!
//! A `--follow <addr>` replica is an ordinary plan server whose cache is
//! *written* by a background follower instead of (only) by its own planners:
//!
//! 1. **Bootstrap** — connect to the primary, `Subscribe { adopt: true }`,
//!    `Resync` for an event-seq baseline, then `FetchSnapshot` and import the
//!    full plan store.
//! 2. **Steady state** — every `Replanned`/`PlanReady` event carries the full
//!    cached-plan payload on adopt subscriptions; the follower adopts it
//!    through `PlanEngine::adopt_plan` (re-deriving the key, so a corrupt
//!    payload is dropped, never cached wrong). `CacheInvalidated` events
//!    remove the named keys.
//! 3. **Recovery** — any event-seq gap (server shed events to this slow
//!    subscriber, client buffer overflow, reconnect) triggers a fresh
//!    `Resync` + `FetchSnapshot` pull, counted in
//!    `qsync_replica_resync_pulls_total`. A successful pull replaces the
//!    mirrored set (stale local entries the snapshot lacks are pruned), and
//!    replaying a contiguous event suffix on top of an at-least-as-new
//!    snapshot is idempotent — so the replica converges to the primary's
//!    exact resident set.
//!
//! The seq/apply state machine ([`ReplicaApply`]) is pure — no sockets — and
//! is shared with the deterministic lab scenario, which drives it from a
//! [`SimServer`](crate::sim::SimServer)'s scripted byte stream.
//!
//! Replication is **cache shipping**, not consensus: the replica serves
//! whatever it has adopted so far (plus anything it plans itself), and the
//! primary never waits for it. A replica with a smaller cache capacity than
//! its primary may evict entries the primary retains.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qsync_api::ServerEvent;
use qsync_client::{ClientError, EventItem, EventStream, MuxClient};
use qsync_store::StoreError;

use crate::engine::PlanEngine;
use crate::persist::{self, ImportStats};

/// How a replica follows its primary.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The primary's TCP address (`--follow`).
    pub primary: std::net::SocketAddr,
    /// Delay between reconnect attempts after a lost or failed session.
    pub reconnect_delay: Duration,
}

impl FollowerConfig {
    /// Follow `primary` with the default 200 ms reconnect delay.
    pub fn new(primary: std::net::SocketAddr) -> Self {
        FollowerConfig { primary, reconnect_delay: Duration::from_millis(200) }
    }
}

/// What applying one subscribed event did to the replica's engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The replica's cache changed (an adoption or at least one removal).
    Mutated,
    /// Nothing to change: a stale seq already covered by the last snapshot,
    /// a notification without a payload, or a payload that failed adoption.
    Noop,
    /// The seq skipped ahead — events were lost; the caller must pull a
    /// fresh snapshot ([`ReplicaApply::import_snapshot`]) and re-baseline.
    Gap {
        /// The seq the replica expected next.
        expected: u64,
        /// The seq that actually arrived.
        got: u64,
    },
}

/// The replica's seq-checked event-application state machine.
///
/// Transport-agnostic: the TCP follower feeds it from a [`MuxClient`]
/// subscription, the lab's deterministic scenario from a simulated
/// connection. All cache mutation goes through the engine's checked
/// adoption/removal paths.
#[derive(Debug)]
pub struct ReplicaApply {
    engine: Arc<PlanEngine>,
    /// Next expected event seq; `None` until the first baseline.
    next_seq: Option<u64>,
}

impl ReplicaApply {
    /// An applier over the replica's local engine.
    pub fn new(engine: Arc<PlanEngine>) -> Self {
        ReplicaApply { engine, next_seq: None }
    }

    /// The replica's engine.
    pub fn engine(&self) -> &Arc<PlanEngine> {
        &self.engine
    }

    /// Restart seq tracking at `seq` — the baseline a `Resync` reply
    /// returns. Updates the replica lag gauge against the last applied seq.
    pub fn baseline(&mut self, seq: u64) {
        let obs = self.engine.obs();
        let applied = obs.replica_applied_seq.get().max(0) as u64;
        obs.replica_lag_seq.set(seq.saturating_sub(applied) as i64);
        self.next_seq = Some(seq);
    }

    /// Verify and import a full snapshot pull (bootstrap or gap recovery),
    /// counting it in `qsync_replica_resync_pulls_total`.
    ///
    /// A successful pull **replaces** the mirrored set: local cache entries
    /// absent from the snapshot are pruned, because they may have been
    /// invalidated or evicted on the primary while this replica was
    /// disconnected — events it will never see. A pull that fails
    /// verification changes nothing.
    pub fn import_snapshot(&self, data: &str) -> Result<ImportStats, StoreError> {
        self.engine.obs().resync_pulls.inc();
        let loaded = qsync_store::decode(data)?;
        let stats = persist::import_string(&self.engine, data)?;
        let resident: std::collections::HashSet<&str> = loaded
            .records
            .iter()
            .filter(|record| record.kind == persist::PLAN_KIND)
            .map(|record| record.key.as_str())
            .collect();
        for key in self.engine.cache().keys() {
            if !resident.contains(key.as_str()) {
                self.engine.cache().remove(&key);
            }
        }
        Ok(stats)
    }

    /// Fold one subscribed `(seq, event)` into the replica. Events below the
    /// baseline are already covered by the last snapshot and skip; a seq
    /// above the expected one reports [`Applied::Gap`] without consuming the
    /// event (re-deliver it after recovery).
    pub fn apply(&mut self, seq: u64, event: &ServerEvent) -> Applied {
        match self.next_seq {
            Some(expected) if seq > expected => return Applied::Gap { expected, got: seq },
            Some(expected) if seq < expected => return Applied::Noop,
            _ => {}
        }
        self.next_seq = Some(seq + 1);
        let obs = self.engine.obs();
        obs.replica_applied_seq.set(seq as i64);
        obs.replica_lag_seq.set(0);
        match event {
            ServerEvent::CacheInvalidated { keys, .. } => {
                let mut removed = false;
                for key in keys {
                    removed |= self.engine.cache().remove(key).is_some();
                }
                if removed {
                    Applied::Mutated
                } else {
                    Applied::Noop
                }
            }
            ServerEvent::Replanned { adopt: Some(payload), .. }
            | ServerEvent::PlanReady { adopt: Some(payload), .. } => {
                if self.engine.adopt_plan(
                    payload.request.clone(),
                    payload.response.clone(),
                    payload.inference_pdag.clone(),
                ) {
                    Applied::Mutated
                } else {
                    Applied::Noop
                }
            }
            _ => Applied::Noop,
        }
    }
}

/// Spawn the follower thread: connect (and reconnect) to
/// [`FollowerConfig::primary`], bootstrap from its snapshot, and mirror its
/// cache into `engine` until `stop` is set. Join the handle after setting
/// `stop` for a clean shutdown.
pub fn follow(
    engine: Arc<PlanEngine>,
    config: FollowerConfig,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("qsync-replica-follower".into())
        .spawn(move || follower_loop(&engine, &config, &stop))
        .expect("spawn follower thread")
}

fn follower_loop(engine: &Arc<PlanEngine>, config: &FollowerConfig, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        if let Ok(client) = MuxClient::connect(config.primary) {
            // Session errors (primary restart, shed subscription the pull
            // could not recover, transport loss) fall through to reconnect.
            let _ = follow_session(engine, &client, stop);
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(config.reconnect_delay);
    }
}

/// One connected session: bootstrap, then apply events until the stream
/// breaks or `stop` is set.
fn follow_session(
    engine: &Arc<PlanEngine>,
    client: &MuxClient,
    stop: &AtomicBool,
) -> Result<(), ClientError> {
    let stream = client.subscribe_adopt()?;
    let mut apply = ReplicaApply::new(Arc::clone(engine));
    resync_and_pull(client, &stream, &mut apply)?;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match stream.next_timeout(Duration::from_millis(200)) {
            Some(EventItem::Event { seq, event }) => {
                if let Applied::Gap { .. } = apply.apply(seq, &event) {
                    resync_and_pull(client, &stream, &mut apply)?;
                    // Re-deliver: at or above the new baseline it applies,
                    // below it it skips as snapshot-covered.
                    apply.apply(seq, &event);
                }
            }
            Some(EventItem::Gap { .. }) => {
                resync_and_pull(client, &stream, &mut apply)?;
            }
            // Timeout or closed stream: a cheap round-trip distinguishes the
            // two (and doubles as a liveness probe). An error ends the
            // session and the outer loop reconnects.
            None => {
                client.stats()?;
            }
        }
    }
}

/// Gap/bootstrap recovery: re-baseline from `Resync`, then pull and import a
/// fresh full snapshot. Events arriving in between are either covered by the
/// snapshot (stale seq — skipped) or re-applied idempotently after it.
fn resync_and_pull(
    client: &MuxClient,
    stream: &EventStream,
    apply: &mut ReplicaApply,
) -> Result<(), ClientError> {
    let resync = client.resync()?;
    let blob = client.fetch_snapshot()?;
    stream.reset_baseline(resync.seq);
    apply.baseline(resync.seq);
    apply
        .import_snapshot(&blob.data)
        .map_err(|e| ClientError::Protocol(format!("snapshot pull failed verification: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::plan_records;
    use qsync_api::{ModelSpec, PlanOutcome, PlanPayload, PlanRequest};
    use qsync_cluster::topology::ClusterSpec;

    fn request(id: u64, batch: usize) -> PlanRequest {
        PlanRequest::new(
            id,
            ModelSpec::SmallMlp { batch, in_features: 32, hidden: 64, classes: 8 },
            ClusterSpec::hybrid_small(),
        )
    }

    fn payload_for(engine: &PlanEngine, response: &qsync_api::PlanResponse) -> PlanPayload {
        let entry = engine.cache().peek(&response.key).expect("planned entry is resident");
        PlanPayload {
            request: entry.request,
            response: entry.response,
            inference_pdag: entry.inference_pdag,
        }
    }

    #[test]
    fn adoption_and_invalidation_mirror_the_primary() {
        let primary = PlanEngine::new();
        let replica = Arc::new(PlanEngine::new());
        let mut apply = ReplicaApply::new(Arc::clone(&replica));
        apply.baseline(1);

        let a = primary.plan(&request(1, 8)).unwrap();
        let b = primary.plan(&request(2, 16)).unwrap();
        let ready = |r: &qsync_api::PlanResponse| ServerEvent::PlanReady {
            key: r.key.clone(),
            outcome: PlanOutcome::ColdPlanned,
            predicted_iteration_us: r.predicted_iteration_us,
            trace_id: 0,
            adopt: Some(payload_for(&primary, r)),
        };
        assert_eq!(apply.apply(1, &ready(&a)), Applied::Mutated);
        assert_eq!(apply.apply(2, &ready(&b)), Applied::Mutated);
        assert_eq!(
            qsync_store::encode(&plan_records(&replica)),
            qsync_store::encode(&plan_records(&primary)),
            "replica plan records are byte-identical to the primary's"
        );

        primary.cache().remove(&a.key).unwrap();
        let inval = ServerEvent::CacheInvalidated { keys: vec![a.key.clone()], trace_id: 0 };
        assert_eq!(apply.apply(3, &inval), Applied::Mutated);
        assert_eq!(
            qsync_store::encode(&plan_records(&replica)),
            qsync_store::encode(&plan_records(&primary))
        );
    }

    #[test]
    fn seq_gap_is_reported_and_stale_events_skip() {
        let replica = Arc::new(PlanEngine::new());
        let mut apply = ReplicaApply::new(Arc::clone(&replica));
        apply.baseline(5);
        let inval = ServerEvent::CacheInvalidated { keys: vec!["k".into()], trace_id: 0 };
        // Stale: covered by the snapshot that came with baseline 5.
        assert_eq!(apply.apply(3, &inval), Applied::Noop);
        // In order.
        assert_eq!(apply.apply(5, &inval), Applied::Noop);
        // Gap: 6 expected, 9 arrived — recovery required, event not consumed.
        assert_eq!(apply.apply(9, &inval), Applied::Gap { expected: 6, got: 9 });
        assert_eq!(apply.apply(9, &inval), Applied::Gap { expected: 6, got: 9 });
        // After recovery the withheld event applies.
        apply.baseline(9);
        assert_eq!(apply.apply(9, &inval), Applied::Noop);
        assert_eq!(replica.obs().snapshot().counter("qsync_replica_resync_pulls_total"), Some(0));
    }

    #[test]
    fn snapshot_pull_then_replayed_suffix_is_idempotent() {
        let primary = PlanEngine::new();
        let a = primary.plan(&request(1, 8)).unwrap();
        let b = primary.plan(&request(2, 16)).unwrap();
        let snapshot = crate::persist::snapshot_string(&primary).0;
        // The primary then invalidates `a` at seq 7 (after the snapshot).
        primary.cache().remove(&a.key).unwrap();

        let replica = Arc::new(PlanEngine::new());
        let mut apply = ReplicaApply::new(Arc::clone(&replica));
        apply.baseline(6);
        apply.import_snapshot(&snapshot).unwrap();
        // Replayed adoption of `b` (seq 6, raced the snapshot): idempotent.
        let ready = ServerEvent::PlanReady {
            key: b.key.clone(),
            outcome: PlanOutcome::ColdPlanned,
            predicted_iteration_us: b.predicted_iteration_us,
            trace_id: 0,
            adopt: Some(payload_for(&primary, &b)),
        };
        apply.apply(6, &ready);
        let inval = ServerEvent::CacheInvalidated { keys: vec![a.key.clone()], trace_id: 0 };
        assert_eq!(apply.apply(7, &inval), Applied::Mutated);
        assert_eq!(
            qsync_store::encode(&plan_records(&replica)),
            qsync_store::encode(&plan_records(&primary))
        );
        assert_eq!(replica.obs().snapshot().counter("qsync_replica_resync_pulls_total"), Some(1));
    }
}
