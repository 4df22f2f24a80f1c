//! The planning engine: cache-fronted cold planning and elastic warm re-planning.
//!
//! [`PlanEngine`] is the shared, thread-safe core the server's worker pool
//! calls into. It owns the [`PlanCache`] and implements the three paths a
//! request can take:
//!
//! 1. **Cache hit** — the key resolves to a stored entry; the cached plan is
//!    returned byte-identically.
//! 2. **Cold plan** — assemble the
//!    [`QSyncSystem`](qsync_core::system::QSyncSystem) from the parts store
//!    (building only the parts never seen: see below), run the full
//!    allocator on one evaluator, cache and return.
//! 3. **Warm re-plan** — on a [`ClusterDelta`](qsync_api::ClusterDelta),
//!    evict exactly the entries planned against the old cluster fingerprint
//!    and re-plan each by warm starting the allocator's recovery phase from
//!    the cached assignment.
//!
//! Elasticity events are **batched**: [`PlanEngine::apply_deltas_with`] takes
//! a whole wave of deltas at once, composes the deltas that name the same
//! base cluster into one shape chain, invalidates that cluster's entries
//! once, and emits one [`ReplanChain`] per evicted entry. The caller decides
//! how chains run — inline ([`PlanEngine::apply_delta`]) or fanned out across
//! a worker pool (the server submits them to the scheduler's batch class).
//! Chains re-plan through every intermediate shape, so the final plans are
//! **byte-identical** to applying the deltas one at a time. Which deltas
//! share a wave is the server's call: its delta queue hands the engine
//! everything that arrived within one collection window (see
//! [`crate::server`]).
//!
//! ## What is memoized, on what, bounded by what
//!
//! | memo | value | key | bound |
//! |---|---|---|---|
//! | parts store, model half | `ModelContext` (graph, topology, DFG skeleton, subgraphs, statistics) | model fingerprint, statistics seed, bucket count | 8 MiB of parts (`parts.rs`); an insert that would cross it clears the contexts, then — if still over — the tables |
//! | parts store, device half | one device's profile table | model fingerprint, device id, GPU model, compute-fraction bits, profile seed — *not* the memory fraction, not the other devices | (same store, same bound) |
//!
//! The cheap per-shape parts of a system (casting calculators, communication
//! model, config) are rebuilt on every assembly, and the allocator's phase 1
//! runs on every plan. Both memos are value-transparent: hit, miss, a clear
//! and a concurrent double build all give byte-identical plans.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use qsync_api::{
    ApiError, DeltaRequest, DeltaResponse, DeltaStats, IndicatorChoice, PlanHitBody, PlanOutcome,
    PlanRequest, PlanResponse,
};
use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::{AllocationReport, Allocator};
use qsync_core::indicator::{HessianIndicator, RandomIndicator, SensitivityIndicator};
use qsync_core::plan::PrecisionPlan;
use qsync_graph::PrecisionDag;

use crate::cache::{CacheConfig, CachedPlan, PlanCache};
use crate::metrics::ServeObs;
use crate::parts::PartsStore;

/// The cache-fronted planning engine. Cheap to share: wrap in an [`Arc`] and
/// clone the handle across worker threads.
///
/// Identical concurrent requests are **single-flighted**: the first computes,
/// the rest block until the entry lands and then serve it as a cache hit, so a
/// thundering herd on one key plans exactly once.
#[derive(Debug, Default)]
pub struct PlanEngine {
    cache: PlanCache,
    in_flight: Mutex<HashSet<String>>,
    flight_done: Condvar,
    delta_waves: AtomicU64,
    delta_events: AtomicU64,
    batched_replans: AtomicU64,
    obs: Arc<ServeObs>,
    /// Shared system parts — one model context per model, one profile table
    /// per (model, device) — each keyed on exactly what it depends on, so a
    /// new memory limit or a degraded neighbour re-profiles nothing. See
    /// `parts.rs`.
    parts: PartsStore,
    /// Cooperative-preemption budget for the brute-force initial pass: at
    /// most this many candidate combinations are scored per cold plan before
    /// the pass checkpoints its best-so-far and yields the worker. `None`
    /// (the default) runs the pass exhaustively. Deterministic — the same
    /// budget always produces the same plan — so servers, simulations and
    /// the coherence oracle must agree on it.
    plan_budget_evals: Option<u64>,
}

/// One evicted cache entry plus the shape chain it must be re-planned
/// through. Produced by [`PlanEngine::apply_deltas_with`], executed by
/// [`PlanEngine::run_replan_chain`] — on the calling thread or a worker pool.
#[derive(Debug, Clone)]
pub struct ReplanChain {
    /// The evicted entry (request + cached warm-start assignment).
    pub entry: CachedPlan,
    /// The successive cluster shapes of the composed deltas (never empty);
    /// only the final shape's plan is cached and reported.
    pub shapes: Vec<ClusterSpec>,
    /// Trace id of the delta wave that evicted the entry (0 = untraced).
    /// Stamped onto the re-planned response and its trace spans so an
    /// elasticity event's fan-out is reconstructable end to end.
    pub trace_id: u64,
}

/// Removes a key from the in-flight set even if planning panics, so waiters
/// are never stranded.
struct FlightGuard<'a> {
    engine: &'a PlanEngine,
    key: String,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.engine.in_flight.lock().expect("in-flight set poisoned").remove(&self.key);
        self.engine.flight_done.notify_all();
    }
}

impl PlanEngine {
    /// An engine with an empty cache of the default sizing.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with an explicitly sized (capacity, shards) cache.
    pub fn with_cache_config(config: CacheConfig) -> Self {
        PlanEngine { cache: PlanCache::with_config(config), ..PlanEngine::default() }
    }

    /// A shared handle, ready for worker threads.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The underlying cache (stats, direct inspection).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// This engine with an explicit observability bundle (e.g. a disabled
    /// one for the overhead-guard bench). The default is an enabled
    /// [`ServeObs`].
    pub fn with_obs(mut self, obs: Arc<ServeObs>) -> Self {
        self.obs = obs;
        self
    }

    /// This engine with a cooperative-preemption budget on the brute-force
    /// initial pass (`None` = unbounded, the default): the `max_evals` of
    /// every [`Allocator::plan`] call.
    pub fn with_plan_budget(mut self, max_evals: Option<u64>) -> Self {
        self.plan_budget_evals = max_evals;
        self
    }

    /// The configured initial-pass eval budget, if any.
    pub fn plan_budget_evals(&self) -> Option<u64> {
        self.plan_budget_evals
    }

    /// The observability bundle: instruments, registry and trace log shared
    /// by every layer of the server built on this engine.
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.obs
    }

    /// Serve one plan request: cache hit, wait on an identical in-flight
    /// computation, or cold plan. Returns `Err` for requests that fail
    /// [`PlanRequest::validate`] — malformed wire input must not reach the
    /// planning machinery, whose constructors assert. Errors carry the
    /// request id and a structured [`ApiError`] code/field.
    pub fn plan(&self, request: &PlanRequest) -> Result<PlanResponse, ApiError> {
        self.plan_with_hit_body(request).map(|(response, _)| response)
    }

    /// [`plan`](Self::plan) for the server's reply path: a cache hit also
    /// hands back the entry's [`PlanHitBody`], so the reply line is spliced
    /// ([`qsync_api::render_plan_hit`]) instead of re-serialized. `None`
    /// means the plan was computed by this call.
    pub(crate) fn plan_with_hit_body(
        &self,
        request: &PlanRequest,
    ) -> Result<(PlanResponse, Option<Arc<PlanHitBody>>), ApiError> {
        request.validate().map_err(|e| e.with_id(request.id))?;
        let started = Instant::now();
        let key = request.cache_key();
        let trace_id = request.trace_id.unwrap_or(0);
        let mut coalesced = false;
        let _guard = loop {
            if let Some((entry, hit_body)) = self.cache.peek_hit(&key) {
                self.cache.note_hit(&key);
                let mut response = entry.response;
                response.id = request.id;
                response.outcome = PlanOutcome::CacheHit;
                response.elapsed_us = started.elapsed().as_micros() as u64;
                response.trace_id = request.trace_id;
                self.obs.plan_hit_us.record(response.elapsed_us);
                if trace_id != 0 {
                    let now = self.obs.trace.now_us();
                    self.obs.trace.span(
                        trace_id,
                        "cache_hit",
                        now.saturating_sub(response.elapsed_us),
                        key.clone(),
                    );
                }
                return Ok((response, Some(hit_body)));
            }
            let mut flights = self.in_flight.lock().expect("in-flight set poisoned");
            if !flights.contains(&key) {
                flights.insert(key.clone());
                break FlightGuard { engine: self, key: key.clone() };
            }
            // Someone else is planning this key; wait for them, then re-check
            // the cache. One request counts at most one coalesce, however
            // many wait/miss passes it takes before it is served.
            if !coalesced {
                coalesced = true;
                self.obs.singleflight_coalesced.inc();
            }
            while flights.contains(&key) {
                flights = self.flight_done.wait(flights).expect("in-flight set poisoned");
            }
        };
        self.cache.note_miss(&key);
        Ok((self.plan_and_cache(request, key, PlanOutcome::ColdPlanned, None, started), None))
    }

    /// Apply one elasticity event inline: invalidate every cached plan for
    /// the event's cluster, then re-plan each against the new shape,
    /// warm-starting from the cached assignment. Equivalent to a
    /// single-delta [`apply_deltas_with`](Self::apply_deltas_with) wave whose
    /// chains run on the calling thread.
    pub fn apply_delta(&self, request: &DeltaRequest) -> Result<DeltaResponse, ApiError> {
        self.apply_deltas_with(std::slice::from_ref(request), |chains| {
            chains.iter().map(|chain| self.run_replan_chain(chain)).collect()
        })
        .pop()
        .expect("one delta produces one result")
    }

    /// Apply a wave of elasticity events as one batch.
    ///
    /// Deltas naming the same base cluster (by fingerprint) are **composed**
    /// in order into a single shape chain; the base cluster's cache entries
    /// are invalidated once and each becomes a [`ReplanChain`] through every
    /// shape of its group — so the final plans are byte-identical to applying
    /// the deltas serially, while the (dominant) re-plan work runs as one
    /// parallelizable wave. `exec` receives every chain of the wave and must
    /// return one response per chain, in order.
    ///
    /// Per-delta results: a delta whose event fails to apply (e.g. a rank
    /// made out-of-bounds by an earlier delta in its group) gets an `Err` and
    /// is skipped from the composition. Successful deltas report the
    /// fingerprints of their step in the chain, the group's invalidation
    /// count and the group size ([`DeltaResponse::coalesced`]); the **last**
    /// delta of each group carries the final re-planned responses.
    pub fn apply_deltas_with<F>(
        &self,
        requests: &[DeltaRequest],
        exec: F,
    ) -> Vec<Result<DeltaResponse, ApiError>>
    where
        F: FnOnce(Vec<ReplanChain>) -> Vec<PlanResponse>,
    {
        struct Member {
            idx: usize,
            old_fingerprint: u128,
            new_fingerprint: u128,
        }
        struct Group {
            base_fingerprint: u128,
            shapes: Vec<ClusterSpec>,
            members: Vec<Member>,
            invalidated: usize,
            chains: std::ops::Range<usize>,
        }

        let mut groups: Vec<Group> = Vec::new();
        let mut results: Vec<Option<Result<DeltaResponse, ApiError>>> =
            requests.iter().map(|_| None).collect();
        for (idx, request) in requests.iter().enumerate() {
            let base_fingerprint = request.cluster.fingerprint();
            let group = match groups.iter_mut().find(|g| g.base_fingerprint == base_fingerprint) {
                Some(group) => group,
                None => {
                    groups.push(Group {
                        base_fingerprint,
                        shapes: Vec::new(),
                        members: Vec::new(),
                        invalidated: 0,
                        chains: 0..0,
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            let current = group.shapes.last().unwrap_or(&request.cluster);
            match request.delta.apply(current) {
                Ok(next) => {
                    group.members.push(Member {
                        idx,
                        old_fingerprint: current.fingerprint(),
                        new_fingerprint: next.fingerprint(),
                    });
                    group.shapes.push(next);
                }
                Err(error) => results[idx] = Some(Err(error.with_id(request.id))),
            }
        }
        groups.retain(|g| !g.members.is_empty());

        let mut chains: Vec<ReplanChain> = Vec::new();
        for group in &mut groups {
            let evicted = self.cache.invalidate_cluster(group.base_fingerprint);
            group.invalidated = evicted.len();
            let start = chains.len();
            // The wave's chains trace as the last composed delta of the
            // group — the one whose reply carries the re-planned responses.
            let trace_id = group
                .members
                .last()
                .and_then(|m| requests[m.idx].trace_id)
                .unwrap_or(0);
            for (_, entry) in evicted {
                chains.push(ReplanChain { entry, shapes: group.shapes.clone(), trace_id });
            }
            group.chains = start..chains.len();
        }
        self.obs.wave_width.record(requests.len() as u64);
        self.delta_waves.fetch_add(1, Ordering::Relaxed);
        self.delta_events.fetch_add(requests.len() as u64, Ordering::Relaxed);
        self.batched_replans.fetch_add(chains.len() as u64, Ordering::Relaxed);

        let total = chains.len();
        let responses = if chains.is_empty() { Vec::new() } else { exec(chains) };
        assert_eq!(responses.len(), total, "exec must return one response per chain");

        for group in &groups {
            let members = group.members.len();
            for (k, member) in group.members.iter().enumerate() {
                let replanned = if k + 1 == members {
                    responses[group.chains.clone()].to_vec()
                } else {
                    Vec::new()
                };
                results[member.idx] = Some(Ok(DeltaResponse {
                    id: requests[member.idx].id,
                    old_cluster_fingerprint: format!("{:032x}", member.old_fingerprint),
                    new_cluster_fingerprint: format!("{:032x}", member.new_fingerprint),
                    invalidated: group.invalidated,
                    coalesced: members,
                    replanned,
                    trace_id: requests[member.idx].trace_id,
                }));
            }
        }
        results
            .into_iter()
            .map(|result| result.expect("every delta got a result"))
            .collect()
    }

    /// Counters of the elasticity layer: waves applied, events batched into
    /// them, and re-plan chains fanned out.
    pub fn delta_stats(&self) -> DeltaStats {
        DeltaStats {
            waves: self.delta_waves.load(Ordering::Relaxed),
            events: self.delta_events.load(Ordering::Relaxed),
            batched_replans: self.batched_replans.load(Ordering::Relaxed),
        }
    }

    /// The registry snapshot plus the engine's derived values — cache totals,
    /// per-shard counters and delta-pipeline totals — appended as dynamic
    /// metrics. These live in authoritative structures (the cache, the delta
    /// counters), so they are read at snapshot time instead of being
    /// double-counted on the hot path. The streaming server appends its
    /// scheduler and subscriber dynamics on top.
    pub(crate) fn metrics_snapshot(&self) -> qsync_obs::MetricsSnapshot {
        use qsync_obs::{CounterValue, GaugeValue};
        let mut snap = self.obs.snapshot();
        let cache = self.cache.stats();
        for (name, value) in [
            ("qsync_cache_hits_total", cache.hits),
            ("qsync_cache_misses_total", cache.misses),
            ("qsync_cache_invalidated_total", cache.invalidated),
            ("qsync_cache_evicted_total", cache.evicted),
        ] {
            snap.counters.push(CounterValue { name: name.to_string(), value });
        }
        snap.gauges.push(GaugeValue {
            name: "qsync_cache_entries".to_string(),
            value: cache.entries as i64,
        });
        for (i, shard) in self.cache.shard_stats().iter().enumerate() {
            for (kind, value) in
                [("hits", shard.hits), ("misses", shard.misses), ("evicted", shard.evicted)]
            {
                snap.counters.push(CounterValue {
                    name: format!("qsync_cache_shard_{kind}{{shard=\"{i}\"}}"),
                    value,
                });
            }
            snap.gauges.push(GaugeValue {
                name: format!("qsync_cache_shard_entries{{shard=\"{i}\"}}"),
                value: shard.entries as i64,
            });
        }
        let (part_entries, part_bytes) = self.parts.usage();
        for (name, value) in [
            ("qsync_engine_profile_memo_entries", part_entries),
            ("qsync_engine_profile_memo_bytes", part_bytes),
        ] {
            snap.gauges.push(GaugeValue { name: name.to_string(), value: value as i64 });
        }
        let deltas = self.delta_stats();
        for (name, value) in [
            ("qsync_delta_waves_total", deltas.waves),
            ("qsync_delta_events_total", deltas.events),
            ("qsync_delta_batched_replans_total", deltas.batched_replans),
        ] {
            snap.counters.push(CounterValue { name: name.to_string(), value });
        }
        snap
    }

    /// Warm re-plan one evicted entry through its group's shape chain.
    ///
    /// Intermediate shapes thread the warm-start assignment exactly as serial
    /// delta application would (consulting the cache at each step), but only
    /// the **final** shape's plan is cached and returned — intermediate
    /// results would be invalidated by the very next delta of the chain.
    pub fn run_replan_chain(&self, chain: &ReplanChain) -> PlanResponse {
        let started = Instant::now();
        self.obs.replan_chain_len.record(chain.shapes.len() as u64);
        let mut request = chain.entry.request.clone();
        request.trace_id = (chain.trace_id != 0).then_some(chain.trace_id);
        let mut warm = chain.entry.inference_pdag.clone();
        let last = chain.shapes.len() - 1;
        for (step, shape) in chain.shapes.iter().enumerate() {
            request.cluster = shape.clone();
            let key = request.cache_key();
            // The shape may already be cached (e.g. two entries converge).
            // `peek`: warm re-plans are server-initiated, so they stay out of
            // the request-path hit/miss counters.
            if let Some(hit) = self.cache.peek(&key) {
                if step == last {
                    let mut response = hit.response.clone();
                    response.id = request.id;
                    response.outcome = PlanOutcome::CacheHit;
                    response.elapsed_us = started.elapsed().as_micros() as u64;
                    response.trace_id = request.trace_id;
                    if chain.trace_id != 0 {
                        let now = self.obs.trace.now_us();
                        self.obs.trace.span(
                            chain.trace_id,
                            "replan_hit",
                            now.saturating_sub(response.elapsed_us),
                            key.clone(),
                        );
                    }
                    return response;
                }
                warm = hit.inference_pdag.clone();
                continue;
            }
            if step == last {
                return self.plan_and_cache(
                    &request,
                    key,
                    PlanOutcome::WarmReplanned,
                    warm.as_ref(),
                    started,
                );
            }
            (_, _, warm) = self.run_allocator(&request, warm.as_ref());
        }
        unreachable!("ReplanChain.shapes is never empty")
    }

    /// Run the allocator (cold or warm) and populate the cache.
    fn plan_and_cache(
        &self,
        request: &PlanRequest,
        key: String,
        outcome: PlanOutcome,
        warm: Option<&PrecisionDag>,
        started: Instant,
    ) -> PlanResponse {
        let (plan, report, inference_pdag) = self.run_allocator(request, warm);
        let response = PlanResponse {
            id: request.id,
            key: key.clone(),
            outcome,
            predicted_iteration_us: report.final_us,
            t_min_us: report.t_min_us,
            promotions_accepted: report.promotions_accepted,
            warm_demotions: report.warm_demotions,
            elapsed_us: started.elapsed().as_micros() as u64,
            trace_id: request.trace_id,
            plan,
        };
        let entry = CachedPlan {
            request: request.clone(),
            response: response.clone(),
            inference_pdag,
            cluster_fingerprint: request.cluster_fingerprint(),
        };
        self.cache.insert(key, entry);
        let (hist, stage) = match outcome {
            PlanOutcome::WarmReplanned => (&self.obs.plan_warm_us, "warm_replan"),
            _ => (&self.obs.plan_cold_us, "cold_plan"),
        };
        hist.record(response.elapsed_us);
        if let Some(trace_id) = request.trace_id.filter(|&t| t != 0) {
            let now = self.obs.trace.now_us();
            self.obs.trace.span(
                trace_id,
                stage,
                now.saturating_sub(response.elapsed_us),
                response.key.clone(),
            );
        }
        response
    }

    /// Assemble the system for a request and run the allocator, cold or warm,
    /// under the engine's eval budget, counting a preempted phase 1. Returns
    /// the plan, its report and the inference assignment later warm re-plans
    /// start from (`None` without inference devices).
    fn run_allocator(
        &self,
        request: &PlanRequest,
        warm: Option<&PrecisionDag>,
    ) -> (PrecisionPlan, AllocationReport, Option<PrecisionDag>) {
        let system = self.parts.system_for(request, &self.obs);
        let indicator: Box<dyn SensitivityIndicator> = match request.indicator {
            IndicatorChoice::Variance => Box::new(system.indicator()),
            IndicatorChoice::Hessian => Box::new(HessianIndicator { stats: system.stats().clone() }),
            IndicatorChoice::Random => Box::new(RandomIndicator { seed: system.config.seed }),
        };
        let allocation =
            Allocator::new(&system).plan(indicator.as_ref(), warm, self.plan_budget_evals);
        if allocation.initial.as_ref().is_some_and(|(_, pass)| pass.preempted) {
            self.obs.plan_preemptions.inc();
        }
        let inference_pdag = allocation.rank.map(|rank| allocation.plan.device(rank).clone());
        (allocation.plan, allocation.report, inference_pdag)
    }

    /// Adopt an externally produced plan — a snapshot entry on warm boot, or
    /// a primary's plan payload on a replica. Rejects entries whose request
    /// fails validation or whose key is not the request's content-addressed
    /// [`cache_key`](PlanRequest::cache_key) (a snapshot from a build with a
    /// different key schema must load as a miss, not poison the cache).
    pub(crate) fn adopt_plan(
        &self,
        request: PlanRequest,
        response: PlanResponse,
        inference_pdag: Option<PrecisionDag>,
    ) -> bool {
        if request.validate().is_err() || request.cache_key() != response.key {
            return false;
        }
        let key = response.key.clone();
        let cluster_fingerprint = request.cluster_fingerprint();
        self.cache.insert(key, CachedPlan { request, response, inference_pdag, cluster_fingerprint });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_api::{ClusterDelta, ModelSpec};
    use qsync_core::system::QSyncSystem;

    fn mlp_request(id: u64, cluster: ClusterSpec) -> PlanRequest {
        PlanRequest::new(
            id,
            ModelSpec::SmallMlp { batch: 16, in_features: 32, hidden: 64, classes: 8 },
            cluster,
        )
    }

    #[test]
    fn repeated_request_hits_the_cache_byte_identically() {
        let engine = PlanEngine::new();
        let request = mlp_request(1, ClusterSpec::hybrid_small());
        let cold = engine.plan(&request).unwrap();
        assert_eq!(cold.outcome, PlanOutcome::ColdPlanned);
        let hit = engine.plan(&request).unwrap();
        assert_eq!(hit.outcome, PlanOutcome::CacheHit);
        assert_eq!(hit.key, cold.key);
        assert_eq!(hit.plan_json(), cold.plan_json());
        assert_eq!(engine.cache().stats().hits, 1);
    }

    #[test]
    fn delta_invalidates_and_warm_replans() {
        let engine = PlanEngine::new();
        let cluster = ClusterSpec::hybrid_small();
        let request = mlp_request(1, cluster.clone());
        let cold = engine.plan(&request).unwrap();

        let rank = cluster.inference_ranks()[0];
        let delta = DeltaRequest::new(
            2,
            cluster.clone(),
            ClusterDelta::Degraded { rank, memory_fraction: 0.4, compute_fraction: 0.8 },
        );
        let outcome = engine.apply_delta(&delta).unwrap();
        assert_eq!(outcome.invalidated, 1);
        assert_eq!(outcome.replanned.len(), 1);
        let replan = &outcome.replanned[0];
        assert_eq!(replan.outcome, PlanOutcome::WarmReplanned);
        assert_ne!(replan.key, cold.key);
        // The re-planned entry is now a cache hit under the new cluster shape.
        let new_cluster = delta.delta.apply(&cluster).unwrap();
        let hit = engine.plan(&mlp_request(3, new_cluster)).unwrap();
        assert_eq!(hit.outcome, PlanOutcome::CacheHit);
    }

    #[test]
    fn delta_on_unknown_cluster_invalidates_nothing() {
        let engine = PlanEngine::new();
        engine.plan(&mlp_request(1, ClusterSpec::hybrid_small())).unwrap();
        let other = ClusterSpec::cluster_a(4, 4);
        let delta = DeltaRequest::new(2, other, ClusterDelta::RankRemoved { rank: 0 });
        let outcome = engine.apply_delta(&delta).unwrap();
        assert_eq!(outcome.invalidated, 0);
        assert!(outcome.replanned.is_empty());
        assert_eq!(engine.cache().len(), 1);
    }

    #[test]
    fn single_flight_stays_correct_under_lru_eviction() {
        // Two keys fighting over a one-entry cache: evictions must never deadlock the
        // single-flight protocol or hand a request the wrong plan.
        let engine = Arc::new(PlanEngine::with_cache_config(crate::cache::CacheConfig {
            capacity: 1,
            shards: 1,
        }));
        let requests = [
            mlp_request(0, ClusterSpec::hybrid_small()),
            mlp_request(0, ClusterSpec::cluster_a(1, 1)),
        ];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let engine = Arc::clone(&engine);
                let requests = requests.clone();
                scope.spawn(move || {
                    for i in 0..6 {
                        let request = &requests[(t + i) % 2];
                        let response = engine.plan(request).unwrap();
                        assert_eq!(response.key, request.cache_key());
                    }
                });
            }
        });
        let stats = engine.cache().stats();
        assert!(stats.entries <= 1);
        assert!(stats.evicted > 0, "two keys over one slot must evict");
        assert_eq!(stats.hits + stats.misses, 24);
    }

    #[test]
    fn a_cluster_without_inference_devices_plans_the_oracle_and_touches_no_memo() {
        let engine = PlanEngine::new();
        let request = mlp_request(1, ClusterSpec::cluster_a(2, 0));
        let oracle = |cluster: &ClusterSpec| {
            PrecisionPlan::oracle(&request.model.build(), cluster).to_json()
        };
        let (plan, report, inference_pdag) = engine.run_allocator(&request, None);
        assert_eq!(plan.to_json(), oracle(&request.cluster));
        assert_eq!(report.t_min_us.to_bits(), report.final_us.to_bits());
        assert_eq!(report.full_predicts, 1);
        assert_eq!(inference_pdag, None);

        let cold = engine.plan(&request).unwrap();
        assert_eq!(cold.plan_json(), oracle(&request.cluster));
        assert_eq!(engine.cache().peek(&cold.key).unwrap().inference_pdag, None);
        let delta = DeltaRequest::new(
            2,
            request.cluster.clone(),
            ClusterDelta::RankAdded {
                model: qsync_cluster::device::GpuModel::V100,
                memory_fraction: 1.0,
                compute_fraction: 1.0,
            },
        );
        let outcome = engine.apply_delta(&delta).unwrap();
        assert_eq!(outcome.replanned.len(), 1);
        let grown = delta.delta.apply(&request.cluster).unwrap();
        assert_eq!(outcome.replanned[0].plan_json(), oracle(&grown));
    }

    #[test]
    fn a_new_memory_limit_reprofiles_nothing_and_a_degraded_rank_only_itself() {
        let counts = |engine: &PlanEngine| {
            let snap = engine.metrics_snapshot();
            [
                "qsync_engine_profile_memo_hits_total",
                "qsync_engine_profile_memo_misses_total",
                "qsync_engine_model_ctx_memo_hits_total",
                "qsync_engine_model_ctx_memo_misses_total",
            ]
            .map(|name| snap.counter(name).expect("registered counter"))
        };
        let engine = PlanEngine::new();
        engine.plan(&mlp_request(1, ClusterSpec::cluster_b(2, 2, 0.3))).unwrap();
        assert_eq!(counts(&engine), [0, 4, 0, 1]);

        // Same model, same devices, another memory fraction: a fresh cache
        // key and cluster fingerprint, yet every part is resident.
        let request = mlp_request(2, ClusterSpec::cluster_b(2, 2, 0.7));
        let second = engine.plan(&request).unwrap();
        assert_eq!(second.outcome, PlanOutcome::ColdPlanned);
        assert_eq!(counts(&engine), [4, 4, 1, 1]);
        let fresh = PlanEngine::new().plan(&request).unwrap();
        assert_eq!(second.plan_json(), fresh.plan_json());
        assert_eq!(second.t_min_us.to_bits(), fresh.t_min_us.to_bits());
        assert_eq!(second.predicted_iteration_us.to_bits(), fresh.predicted_iteration_us.to_bits());

        // Degrading one rank's compute re-profiles that rank alone.
        let rank = request.cluster.inference_ranks()[0];
        let delta = DeltaRequest::new(
            3,
            request.cluster.clone(),
            ClusterDelta::Degraded { rank, memory_fraction: 0.6, compute_fraction: 0.9 },
        );
        let outcome = engine.apply_delta(&delta).unwrap();
        assert_eq!(outcome.replanned.len(), 1);
        assert_eq!(counts(&engine), [7, 5, 2, 1]);
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.gauge("qsync_engine_profile_memo_entries"), Some(6));
        assert!(snap.gauge("qsync_engine_profile_memo_bytes").expect("bytes gauge") > 0);
    }

    /// The warm-start contract: after a delta, re-planning warm through the
    /// engine (resident parts, phase 1, then recovery from the clamped cached
    /// assignment) beats re-planning cold from scratch (`QSyncSystem::new`
    /// plus a cold allocation) by more than 1.5x. VGG-16BN on ClusterA(2,2),
    /// first inference rank degraded to 40% memory and 90% compute. Sides are
    /// timed interleaved, best of trials, so a load spike on a shared host
    /// hits both. Both builds hold the same bound.
    #[test]
    fn warm_replan_beats_a_cold_replan_by_more_than_1_5x() {
        const TRIALS: usize = 5;
        let model = ModelSpec::Vgg16Bn { batch: 2, image: 32 };
        let base = ClusterSpec::cluster_a(2, 2);
        let rank = base.inference_ranks()[0];
        let degraded = ClusterDelta::Degraded { rank, memory_fraction: 0.4, compute_fraction: 0.9 }
            .apply(&base)
            .unwrap();
        let cold_request = PlanRequest::new(0, model.clone(), degraded.clone());
        let degraded_key = cold_request.cache_key();

        let engine = PlanEngine::new();
        let request = PlanRequest::new(0, model, base);
        engine.plan(&request).unwrap();
        let entry = engine.cache().peek(&request.cache_key()).unwrap();
        let chain = ReplanChain { entry, shapes: vec![degraded], trace_id: 0 };
        // Priming run: makes the degraded shape's parts resident.
        assert_eq!(engine.run_replan_chain(&chain).outcome, PlanOutcome::WarmReplanned);

        let time = |f: &dyn Fn()| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        };
        let cold = || {
            let system = QSyncSystem::new(
                cold_request.model.build(),
                cold_request.effective_cluster(),
                cold_request.config(),
            );
            std::hint::black_box(Allocator::new(&system).allocate(&system.indicator()));
        };
        let warm = || {
            engine.cache().remove(&degraded_key).unwrap();
            assert_eq!(engine.run_replan_chain(&chain).outcome, PlanOutcome::WarmReplanned);
        };
        let (mut best_cold, mut best_warm) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..TRIALS {
            best_cold = best_cold.min(time(&cold));
            best_warm = best_warm.min(time(&warm));
        }
        let speedup = best_cold / best_warm;
        eprintln!("warm re-plan {best_warm:.6} s, cold re-plan {best_cold:.6} s: {speedup:.1}x");
        assert!(
            speedup > 1.5,
            "warm re-plan only {speedup:.2}x faster than a cold re-plan \
             ({:.0} us vs {:.0} us; the warm-start contract requires > 1.5x)",
            best_warm * 1e6,
            best_cold * 1e6
        );
    }

    #[test]
    fn adopt_plan_rejects_mismatched_keys() {
        let engine = PlanEngine::new();
        let request = mlp_request(1, ClusterSpec::hybrid_small());
        let response = engine.plan(&request).unwrap();
        let other = PlanEngine::new();
        let mut forged = response.clone();
        forged.key = "not-the-content-address".to_string();
        assert!(!other.adopt_plan(request.clone(), forged, None));
        assert!(other.adopt_plan(request.clone(), response, None));
        assert_eq!(other.cache().len(), 1);
        let hit = other.plan(&request).unwrap();
        assert_eq!(hit.outcome, PlanOutcome::CacheHit);
    }

    #[test]
    fn indicator_choice_changes_the_key_but_still_plans() {
        let engine = PlanEngine::new();
        let mut request = mlp_request(1, ClusterSpec::hybrid_small());
        let variance = engine.plan(&request).unwrap();
        request.indicator = IndicatorChoice::Random;
        let random = engine.plan(&request).unwrap();
        assert_ne!(variance.key, random.key);
        assert_eq!(random.outcome, PlanOutcome::ColdPlanned);
    }
}
