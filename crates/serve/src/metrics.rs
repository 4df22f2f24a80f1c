//! Server-wide observability: the [`ServeObs`] bundle of hot-path
//! instruments plus the request trace log.
//!
//! One `ServeObs` lives behind the [`PlanEngine`](crate::engine::PlanEngine)
//! and is shared by every layer — transport, scheduler dispatch, plan
//! engine, delta pipeline — so a single `Metrics` command (or a scrape of
//! the `--admin-addr` text endpoint) sees the whole server. Instruments are
//! interned once at construction; the record paths are the qsync-obs
//! primitives (relaxed atomics, no locks, no allocation).
//!
//! Cheap-to-derive values (per-class queue depth, cache occupancy, per-shard
//! hit/miss/evict counts, scheduler shed/deadline counters) are *not*
//! instrumented on the hot path: they are appended to the snapshot at
//! `Metrics` time from the authoritative structures — see
//! [`ServeCore::metrics_snapshot`](crate::server::ServeCore).

use qsync_obs::{
    Counter, CounterValue, Gauge, GaugeValue, Histogram, MetricsSnapshot, Registry, TraceLog,
};
use qsync_pool::PoolStats;
use std::sync::{Arc, Mutex};

/// Hot-path instruments and the trace-span ring for one server instance.
///
/// Constructed enabled by default; [`ServeObs::disabled`] builds the same
/// shape with recording compiled down to a branch, which is what the
/// overhead guard (`tests/obs_overhead.rs`) compares against.
#[derive(Debug)]
pub struct ServeObs {
    /// The registry every instrument below is interned in; snapshot this
    /// (plus the dynamic gauges) to answer `Metrics`.
    pub registry: Registry,
    /// Trace-id mint and bounded span ring; answers `Trace`.
    pub trace: TraceLog,

    // ---- transport ----
    /// Connections accepted by the reactor.
    pub accepts: Arc<Counter>,
    /// `accept(2)` failures that triggered the resource-exhaustion backoff
    /// (EMFILE/ENFILE/ENOMEM).
    pub accept_pauses: Arc<Counter>,
    /// 1 while accepts are paused by the resource-exhaustion backoff, else 0.
    pub accept_paused: Arc<Gauge>,
    /// Bytes read off sockets.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to sockets.
    pub bytes_out: Arc<Counter>,
    /// Size in bytes of each framed command line.
    pub frame_bytes: Arc<Histogram>,
    /// Times a connection consumed its whole per-pass read budget (a
    /// flooding client being round-robined, not an error).
    pub read_budget_exhausted: Arc<Counter>,
    /// Read-interest withdrawals because a connection's reply backlog
    /// passed `max_buffered_bytes`.
    pub backpressure_pauses: Arc<Counter>,
    /// Read-interest restorations after the backlog drained below half.
    pub backpressure_resumes: Arc<Counter>,
    /// Connections currently registered with the reactor.
    pub conns_open: Arc<Gauge>,
    /// Accepted connections handed off from the acceptor reactor to a peer
    /// reactor (multi-reactor servers; 0 with one reactor).
    pub reactor_handoffs: Arc<Counter>,
    /// Commands shed by a per-connection token-bucket rate limit (each one
    /// answered with a structured `RateLimited` error, never dropped).
    pub rate_limited_conn: Arc<Counter>,
    /// Commands shed by a per-client token-bucket rate limit.
    pub rate_limited_client: Arc<Counter>,

    // ---- scheduler ----
    /// Milliseconds a dispatched job waited in its queue.
    pub dispatch_wait_ms: Arc<Histogram>,

    // ---- engine / cache ----
    /// Cold plan latency (full allocator run), microseconds.
    pub plan_cold_us: Arc<Histogram>,
    /// Warm re-plan latency (warm-started allocator), microseconds.
    pub plan_warm_us: Arc<Histogram>,
    /// Cache-hit service latency, microseconds.
    pub plan_hit_us: Arc<Histogram>,
    /// Requests that piggy-backed on an identical in-flight computation
    /// instead of planning (single-flight coalesces).
    pub singleflight_coalesced: Arc<Counter>,
    /// Brute-force initial passes preempted by the cooperative eval budget
    /// (the pass committed its best-so-far and yielded the worker).
    pub plan_preemptions: Arc<Counter>,

    // ---- delta pipeline ----
    /// Deltas composed into each applied wave.
    pub wave_width: Arc<Histogram>,
    /// Deltas queued for the next wave (the core's delta-queue depth).
    pub coalescer_pending: Arc<Gauge>,
    /// Length of each warm re-plan chain run after an invalidation.
    pub replan_chain_len: Arc<Histogram>,
    /// Microseconds from wave application to the last fanned-out re-plan
    /// completing.
    pub fanout_us: Arc<Histogram>,
    /// Server events delivered to subscriber outboxes.
    pub events_emitted: Arc<Counter>,
    /// Server events dropped because a subscriber's outbox was over the
    /// event capacity (per-subscriber detail rides in `Stats`/`Resync`).
    pub events_dropped: Arc<Counter>,

    // ---- persistence / replication ----
    /// Snapshots written to the store (periodic + explicit `Snapshot`).
    pub snapshot_writes: Arc<Counter>,
    /// Entries in each written snapshot.
    pub snapshot_entries: Arc<Histogram>,
    /// Bytes in each written snapshot.
    pub snapshot_bytes: Arc<Histogram>,
    /// Microseconds to encode and atomically write each snapshot.
    pub snapshot_write_us: Arc<Histogram>,
    /// Microseconds to read, verify, and import each snapshot load
    /// (warm boot, `Load`, and replica bootstrap pulls).
    pub snapshot_load_us: Arc<Histogram>,
    /// Plans that reused a memoized brute-force initial setting instead of
    /// re-running the exhaustive pass.
    pub memo_hits: Arc<Counter>,
    /// Plans that ran the exhaustive initial pass (and memoized it).
    pub memo_misses: Arc<Counter>,
    /// Device profile tables a system assembly found in the parts store
    /// (one lookup per device of the cluster, per planned system).
    pub profile_memo_hits: Arc<Counter>,
    /// Device profile tables a system assembly had to profile.
    pub profile_memo_misses: Arc<Counter>,
    /// System assemblies that found the model context (graph, topology,
    /// DFG skeleton, statistics) in the parts store.
    pub model_ctx_memo_hits: Arc<Counter>,
    /// System assemblies that built the model context.
    pub model_ctx_memo_misses: Arc<Counter>,
    /// Highest primary event seq this replica has applied (replica side).
    pub replica_applied_seq: Arc<Gauge>,
    /// Primary seq minus applied seq at the last applied event (replica side).
    pub replica_lag_seq: Arc<Gauge>,
    /// Full snapshot pulls a replica performed to bootstrap or to recover
    /// from an event-seq gap or disconnect.
    pub resync_pulls: Arc<Counter>,

    // ---- compute pool ----
    /// Worker threads the process-global qsync-pool is sized to (0 = the
    /// pool executes inline on the calling thread).
    pub pool_threads: Arc<Gauge>,
    /// 1 once the pool's worker threads have actually been spawned (the
    /// pool is lazy: a sequential server never spawns them), else 0.
    pub pool_spawned: Arc<Gauge>,
    /// Chunk jobs currently queued in the pool (injector plus all deques).
    pub pool_queue_depth: Arc<Gauge>,
    /// Chunk jobs executed by the pool (workers and helping callers).
    pub pool_jobs: Arc<Counter>,
    /// Jobs taken from another worker's deque (work stealing).
    pub pool_steals: Arc<Counter>,
    /// Jobs submitted through the global injector (from non-pool threads).
    pub pool_injected: Arc<Counter>,
    /// Times a worker parked waiting for work.
    pub pool_parks: Arc<Counter>,
    /// Explicit wakeups sent to parked workers.
    pub pool_unparks: Arc<Counter>,
    /// The pool stats already mirrored into the instruments above. The pool
    /// keeps its own monotonic atomics (it has no qsync-obs dependency), so
    /// each snapshot adds only the delta since the previous sync — counters
    /// stay monotonic even though the bridge runs on every scrape.
    pool_synced: Mutex<PoolStats>,
}

impl Default for ServeObs {
    fn default() -> Self {
        ServeObs::new()
    }
}

impl ServeObs {
    /// An enabled instrument set (the server default).
    pub fn new() -> Self {
        Self::build(Registry::new())
    }

    /// The same instrument set recording nothing — every record call is one
    /// predictable branch. The overhead guard serves with this to pin
    /// the cost of the instrumentation itself.
    pub fn disabled() -> Self {
        Self::build(Registry::disabled())
    }

    /// Whether the instruments record.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    fn build(registry: Registry) -> Self {
        let r = &registry;
        ServeObs {
            accepts: r.counter("qsync_transport_accepts_total"),
            accept_pauses: r.counter("qsync_transport_accept_pauses_total"),
            accept_paused: r.gauge("qsync_transport_accept_paused"),
            bytes_in: r.counter("qsync_transport_bytes_in_total"),
            bytes_out: r.counter("qsync_transport_bytes_out_total"),
            frame_bytes: r.histogram("qsync_transport_frame_bytes"),
            read_budget_exhausted: r.counter("qsync_transport_read_budget_exhausted_total"),
            backpressure_pauses: r.counter("qsync_transport_backpressure_pauses_total"),
            backpressure_resumes: r.counter("qsync_transport_backpressure_resumes_total"),
            conns_open: r.gauge("qsync_transport_conns_open"),
            reactor_handoffs: r.counter("qsync_transport_reactor_handoffs_total"),
            rate_limited_conn: r.counter("qsync_transport_rate_limited_total{scope=\"conn\"}"),
            rate_limited_client: r.counter("qsync_transport_rate_limited_total{scope=\"client\"}"),
            dispatch_wait_ms: r.histogram("qsync_sched_dispatch_wait_ms"),
            plan_cold_us: r.histogram("qsync_plan_latency_us{kind=\"cold\"}"),
            plan_warm_us: r.histogram("qsync_plan_latency_us{kind=\"warm\"}"),
            plan_hit_us: r.histogram("qsync_plan_latency_us{kind=\"hit\"}"),
            singleflight_coalesced: r.counter("qsync_engine_singleflight_coalesced_total"),
            plan_preemptions: r.counter("qsync_plan_preemptions_total"),
            wave_width: r.histogram("qsync_delta_wave_width"),
            coalescer_pending: r.gauge("qsync_delta_coalescer_pending"),
            replan_chain_len: r.histogram("qsync_delta_replan_chain_len"),
            fanout_us: r.histogram("qsync_delta_fanout_us"),
            events_emitted: r.counter("qsync_events_emitted_total"),
            events_dropped: r.counter("qsync_events_dropped_total"),
            snapshot_writes: r.counter("qsync_store_snapshot_writes_total"),
            snapshot_entries: r.histogram("qsync_store_snapshot_entries"),
            snapshot_bytes: r.histogram("qsync_store_snapshot_bytes"),
            snapshot_write_us: r.histogram("qsync_store_snapshot_write_us"),
            snapshot_load_us: r.histogram("qsync_store_snapshot_load_us"),
            memo_hits: r.counter("qsync_engine_memo_hits_total"),
            memo_misses: r.counter("qsync_engine_memo_misses_total"),
            profile_memo_hits: r.counter("qsync_engine_profile_memo_hits_total"),
            profile_memo_misses: r.counter("qsync_engine_profile_memo_misses_total"),
            model_ctx_memo_hits: r.counter("qsync_engine_model_ctx_memo_hits_total"),
            model_ctx_memo_misses: r.counter("qsync_engine_model_ctx_memo_misses_total"),
            replica_applied_seq: r.gauge("qsync_replica_applied_seq"),
            replica_lag_seq: r.gauge("qsync_replica_lag_seq"),
            resync_pulls: r.counter("qsync_replica_resync_pulls_total"),
            pool_threads: r.gauge("qsync_pool_threads"),
            pool_spawned: r.gauge("qsync_pool_spawned"),
            pool_queue_depth: r.gauge("qsync_pool_queue_depth"),
            pool_jobs: r.counter("qsync_pool_jobs_total"),
            pool_steals: r.counter("qsync_pool_steals_total"),
            pool_injected: r.counter("qsync_pool_injected_total"),
            pool_parks: r.counter("qsync_pool_parks_total"),
            pool_unparks: r.counter("qsync_pool_unparks_total"),
            pool_synced: Mutex::new(PoolStats::default()),
            trace: TraceLog::default(),
            registry,
        }
    }

    /// Snapshot the registered instruments (static part of the `Metrics`
    /// reply; the server appends the derived gauges on top). Refreshes the
    /// `qsync_pool_*` instruments from the live pool first, so a `Metrics`
    /// command or a Prometheus scrape always sees current pool activity.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.sync_pool_stats(qsync_pool::current_stats());
        self.registry.snapshot()
    }

    /// Mirror a [`PoolStats`] reading into the `qsync_pool_*` instruments:
    /// gauges are set outright, counters advance by the delta from the last
    /// sync (the pool's own counters are monotonic per process).
    fn sync_pool_stats(&self, now: PoolStats) {
        let mut last = self.pool_synced.lock().unwrap();
        self.pool_jobs.add(now.jobs.saturating_sub(last.jobs));
        self.pool_steals.add(now.steals.saturating_sub(last.steals));
        self.pool_injected.add(now.injected.saturating_sub(last.injected));
        self.pool_parks.add(now.parks.saturating_sub(last.parks));
        self.pool_unparks.add(now.unparks.saturating_sub(last.unparks));
        self.pool_threads.set(now.workers as i64);
        self.pool_spawned.set(now.spawned as i64);
        self.pool_queue_depth.set(now.queue_depth as i64);
        *last = now;
    }

    /// The per-reactor open-connection gauge
    /// `qsync_transport_reactor_conns{reactor="<i>"}`, interned on first use
    /// (registry interning is idempotent by name, so each reactor resolves
    /// its gauge once at startup and shares it thereafter).
    pub fn reactor_conns(&self, reactor: usize) -> Arc<Gauge> {
        self.registry.gauge(&format!("qsync_transport_reactor_conns{{reactor=\"{reactor}\"}}"))
    }
}

/// Append the scheduler's own counters (they are not registry instruments,
/// so they are read at snapshot time) and its banked DRR deficit.
pub(crate) fn append_sched<T>(snap: &mut MetricsSnapshot, scheduler: &qsync_sched::Scheduler<T>) {
    let sched = scheduler.stats();
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
        value: scheduler.deficit_carry() as i64,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_obs_registers_every_instrument_once() {
        let obs = ServeObs::new();
        obs.accepts.inc();
        obs.plan_cold_us.record(1234);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("qsync_transport_accepts_total"), Some(1));
        assert_eq!(
            snap.histogram("qsync_plan_latency_us{kind=\"cold\"}").map(|h| h.count),
            Some(1)
        );
        // Distinct label blocks are distinct instruments.
        assert_eq!(
            snap.histogram("qsync_plan_latency_us{kind=\"warm\"}").map(|h| h.count),
            Some(0)
        );
    }

    #[test]
    fn pool_bridge_adds_deltas_and_sets_gauges() {
        let obs = ServeObs::new();
        obs.sync_pool_stats(PoolStats {
            workers: 4,
            spawned: true,
            jobs: 10,
            steals: 2,
            injected: 3,
            parks: 1,
            unparks: 1,
            queue_depth: 5,
        });
        // A second sync must add only the delta, not re-add the totals.
        obs.sync_pool_stats(PoolStats {
            workers: 4,
            spawned: true,
            jobs: 15,
            steals: 2,
            injected: 4,
            parks: 1,
            unparks: 2,
            queue_depth: 0,
        });
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("qsync_pool_jobs_total"), Some(15));
        assert_eq!(snap.counter("qsync_pool_steals_total"), Some(2));
        assert_eq!(snap.counter("qsync_pool_injected_total"), Some(4));
        assert_eq!(snap.counter("qsync_pool_unparks_total"), Some(2));
        assert_eq!(snap.gauge("qsync_pool_threads"), Some(4));
        assert_eq!(snap.gauge("qsync_pool_spawned"), Some(1));
        assert_eq!(snap.gauge("qsync_pool_queue_depth"), Some(0));
    }

    #[test]
    fn snapshot_reports_the_live_pool_shape() {
        let obs = ServeObs::new();
        let snap = obs.snapshot();
        // The bridge reads the process-global pool: whatever its size, the
        // gauge must reflect it, and on a freshly-snapshotted obs the
        // counters mirror the pool's own monotonic totals.
        assert_eq!(
            snap.gauge("qsync_pool_threads"),
            Some(qsync_pool::current_stats().workers as i64)
        );
        assert!(snap.counter("qsync_pool_jobs_total").is_some());
    }

    #[test]
    fn disabled_obs_records_nothing_but_snapshots_the_same_names() {
        let obs = ServeObs::disabled();
        obs.accepts.inc();
        obs.frame_bytes.record(77);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("qsync_transport_accepts_total"), Some(0));
        assert_eq!(snap.histogram("qsync_transport_frame_bytes").map(|h| h.count), Some(0));
        assert!(!obs.is_enabled());
    }
}
