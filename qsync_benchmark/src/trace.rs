//! The traced run: per-layer numbers from spans recorded in this file around
//! calls into each layer's public functions, on the head of the same seeded
//! sequence the untraced run sends.
//!
//! A span is `(name, start_ns, end_ns, parent, request)`; spans stay in a
//! `Vec` and are written beside the executable when the run ends. A layer's
//! number is the median duration of its spans. A whole call (say
//! `PlanEngine::plan`) cannot be opened up from outside, so its *stages* are
//! the same public functions called again on the same input right after it;
//! they are recorded with the whole call as their parent, and a self time is
//! the whole call's median minus its stages' medians.
//!
//! End-to-end numbers never come from here: they come from the untraced run.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use qsync_api::{
    parse_line, render_reply, MetricsSnapshot, PlanOutcome, PlanRequest, ServerCommand,
    ServerReply, WireProto,
};
use qsync_client::parse_reply_line;
use qsync_core::allocator::Allocator;
use qsync_core::system::QSyncSystem;
use qsync_lp_kernels::gemm::{gemm_f16, gemm_f32, gemm_i8, TileConfig};
use qsync_lp_kernels::precision::Precision;
use qsync_lp_kernels::quant::FixedQuantizer;
use qsync_sched::{SchedConfig, Scheduler};
use qsync_serve::cache::{CachedPlan, PlanCache};
use qsync_serve::{persist, PlanEngine, ReplanChain};
use qsync_tensor::Tensor;
use qsync_train::{MlpModel, Optimizer};
use serde_json::json;

use crate::config::{self, PER_LAYER, TRAIN_BATCH, TRAIN_DIMS};
use crate::gen::{self, ChurnStream, ColdStream, HitStream, Rng};
use crate::server::beside_executable;
use crate::{serving, stats, train, Outcome};

/// Requests of the in-process pass, per workload. Fixed, so that every count
/// a traced run reports repeats exactly for a seed.
const HIT_REQUESTS: usize = 2000;
const COLD_REQUESTS: usize = 300;
const CHURN_CYCLES: usize = 20;
const TRAIN_STEPS: usize = 120;
const KERNEL_REPEATS: usize = 30;
const STORE_REPEATS: usize = 20;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u32,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses others; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Record one call into a layer as a span. Returns what the call returned
    /// and the span, so its stages can name it as their parent.
    fn call<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let span = self.open(name, Some(parent), request);
        let result = black_box(f());
        self.close(span);
        (result, span)
    }

    /// A span from timestamps taken elsewhere (the client side of a TCP pass).
    fn record(&mut self, name: &'static str, request: u32, start_s: f64, us: f64) {
        let start_ns = (start_s * 1e9) as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (us * 1e3) as u64,
            parent: None,
            request,
        });
    }

    /// Median duration of the spans called `name`, in microseconds (0 when
    /// the workload never calls that layer).
    fn median_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            stats::median(&durations)
        }
    }

    /// Summed duration of the spans called `layer`, in microseconds.
    fn total_us(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    fn write(&self, workload: &str) -> Result<String, String> {
        let path = beside_executable(&format!("qsync_benchmark.{workload}.trace.json"))?;
        let mut text = String::with_capacity(self.spans.len() * 96 + 2);
        text.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        text.push_str("\n]\n");
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}

/// The per-layer values of one traced run, by name; unset layers read 0.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Every metric named `<layer>_us` whose layer has spans takes their median.
    fn take_medians(&mut self, tracer: &Tracer) {
        for (name, _, _) in PER_LAYER {
            if let Some(layer) = name.strip_suffix("_us") {
                if tracer.spans.iter().any(|s| s.name == layer) {
                    self.set(name, tracer.median_us(layer));
                }
            }
        }
    }

    fn in_table_order(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|(name, _, _)| (*name, self.get(name)))
            .collect()
    }
}

/// Whole calls and the stages timed on the same inputs: summed over the run,
/// the stages should not take more than 110% of what the whole calls took.
/// (Sums, not medians: requests of different model families differ several
/// times over in cost, and medians of such a mix do not add.)
fn stage_shares(tracer: &Tracer) -> Vec<(String, serde_json::Value)> {
    let wholes: [(&str, &[&str]); 5] = [
        ("api.cache_key", &["graph.model_build", "graph.fingerprint"]),
        (
            "engine.plan_hit",
            &["api.validate", "api.cache_key", "cache.peek"],
        ),
        (
            "engine.plan_cold",
            &[
                "core.system_build",
                "core.indicator",
                "core.initial_setting",
                "core.recovery",
            ],
        ),
        (
            "elastic.apply_delta",
            &["cache.invalidate", "elastic.replan_chain"],
        ),
        (
            "train.step",
            &[
                "train.forward",
                "train.backward",
                "train.allreduce",
                "train.update",
            ],
        ),
    ];
    wholes
        .into_iter()
        .map(|(whole, stages)| {
            (
                whole,
                stages
                    .iter()
                    .map(|stage| tracer.total_us(stage))
                    .sum::<f64>(),
            )
        })
        .filter(|&(whole, staged)| tracer.total_us(whole) > 0.0 && staged > 0.0)
        .map(|(whole, staged)| (whole.to_string(), json!(staged / tracer.total_us(whole))))
        .collect()
}

/// Client encode → parse → plan (then its stages: validate, key) → render →
/// client decode for one request, each a span under the request's root.
/// Returns the root, the plan span and the response.
fn request_path(
    tracer: &mut Tracer,
    index: u32,
    request: PlanRequest,
    engine: &PlanEngine,
    plan_layer: &'static str,
    wire_bytes: &mut (Vec<f64>, Vec<f64>),
) -> Result<(u32, u32, qsync_api::PlanResponse), String> {
    let root = tracer.open("request", None, index);
    let command = ServerCommand::Plan(request);
    let (line, _) = tracer.call("client.encode", root, index, || {
        serde_json::to_string(&command).expect("command serializes")
    });
    let (parsed, _) = tracer.call("api.parse_line", root, index, || parse_line(&line));
    let ServerCommand::Plan(request) = parsed.map_err(|e| format!("{e:?}"))?.cmd else {
        return Err("a plan line parsed as another command".into());
    };
    // The whole call first, straight after the parse as the server makes it;
    // then its stages on the same request.
    let (response, plan_span) = tracer.call(plan_layer, root, index, || engine.plan(&request));
    let response = response.map_err(|e| format!("plan {}: {e:?}", request.id))?;
    let _ = tracer.call("api.validate", plan_span, index, || request.validate());
    let (key, key_span) = tracer.call("api.cache_key", plan_span, index, || request.cache_key());
    let (dag, _) = tracer.call("graph.model_build", key_span, index, || {
        request.model.build()
    });
    let _ = tracer.call("graph.fingerprint", key_span, index, || dag.fingerprint());
    if response.key != key {
        return Err(format!(
            "plan {}: engine keyed it {} but cache_key() says {key}",
            request.id, response.key
        ));
    }
    let reply = ServerReply::Plan(response);
    let (text, _) = tracer.call("api.render_reply", root, index, || {
        render_reply(WireProto::V0, &reply)
    });
    let (decoded, _) = tracer.call("client.decode", root, index, || parse_reply_line(&text));
    tracer.close(root);
    if decoded.map_err(|e| format!("{e}"))? != reply {
        return Err(format!(
            "request {index}: the reply did not survive render and decode"
        ));
    }
    wire_bytes.0.push(line.len() as f64 + 1.0);
    wire_bytes.1.push(text.len() as f64 + 1.0);
    let ServerReply::Plan(response) = reply else {
        unreachable!("built as a plan reply above")
    };
    Ok((root, plan_span, response))
}

fn set_wire_bytes(layers: &mut Layers, wire_bytes: &(Vec<f64>, Vec<f64>)) {
    layers.set("wire.request_bytes", stats::median(&wire_bytes.0));
    layers.set("wire.reply_bytes", stats::median(&wire_bytes.1));
}

/// `Scheduler::submit` + `next` on one thread: the hand-off without the hop.
fn sched_pass(tracer: &mut Tracer, requests: &[PlanRequest]) {
    let scheduler: Scheduler<u64> = Scheduler::new(SchedConfig::default());
    for (i, request) in requests.iter().enumerate() {
        let root = tracer.open("sched.request", None, i as u32);
        let _ = tracer.call("sched.submit_next", root, i as u32, || {
            let ticket = scheduler
                .submit(request.id, request.job_meta())
                .map_err(|r| r.error);
            (
                ticket,
                scheduler.next().map(|mut dispatch| dispatch.take_payload()),
            )
        });
        tracer.close(root);
    }
}

fn hit_pass(
    tracer: &mut Tracer,
    layers: &mut Layers,
    seed: &Rng,
    resident: &[PlanRequest],
) -> Result<u64, String> {
    let engine = PlanEngine::new();
    for request in resident {
        engine
            .plan(request)
            .map_err(|e| format!("set-up plan: {e:?}"))?;
    }
    let mut stream = HitStream::new(seed, 0, resident);
    let mut wire_bytes = (Vec::new(), Vec::new());
    let mut requests = Vec::with_capacity(HIT_REQUESTS);
    for index in 0..HIT_REQUESTS as u32 {
        let (_, request) = stream.next_ranked();
        requests.push(request.clone());
        let (_, plan_span, response) = request_path(
            tracer,
            index,
            request,
            &engine,
            "engine.plan_hit",
            &mut wire_bytes,
        )?;
        if response.outcome != PlanOutcome::CacheHit {
            return Err(format!(
                "request {index}: a resident key was {:?}",
                response.outcome
            ));
        }
        let _ = tracer.call("cache.peek", plan_span, index, || {
            engine.cache().peek(&response.key)
        });
    }
    sched_pass(tracer, &requests);

    // The store: what `setup_s` of this workload pays on a warm boot.
    let mut bytes = 0;
    for i in 0..STORE_REPEATS as u32 {
        let root = tracer.open("store.round_trip", None, i);
        let ((text, _), _) = tracer.call("store.snapshot", root, i, || {
            persist::snapshot_string(&engine)
        });
        let fresh = PlanEngine::new();
        let (loaded, _) = tracer.call("store.load", root, i, || {
            persist::import_string(&fresh, &text)
        });
        tracer.close(root);
        let loaded = loaded.map_err(|e| format!("store load: {e}"))?;
        if loaded.plans as usize != resident.len() {
            return Err(format!(
                "store load adopted {} of {} plans",
                loaded.plans,
                resident.len()
            ));
        }
        bytes = text.len();
    }
    layers.take_medians(tracer);
    layers.set("store.bytes", bytes as f64);
    set_wire_bytes(layers, &wire_bytes);
    layers.set(
        "engine.hit_self_us",
        layers.get("engine.plan_hit_us")
            - layers.get("api.validate_us")
            - layers.get("api.cache_key_us")
            - layers.get("cache.peek_us"),
    );
    Ok(HIT_REQUESTS as u64)
}

/// Inserts into a cache of the server's default size that is already full,
/// so each one evicts its shard's coldest entry.
fn insert_evict_pass(tracer: &mut Tracer, entries: &[CachedPlan]) {
    let cache = PlanCache::new();
    for i in 0..2 * cache.capacity() {
        cache.insert(format!("fill-{i}"), entries[i % entries.len()].clone());
    }
    for (i, entry) in entries.iter().enumerate() {
        let (key, entry) = (format!("evict-{i}"), entry.clone());
        let root = tracer.open("cache.write", None, i as u32);
        let _ = tracer.call("cache.insert_evict", root, i as u32, || {
            cache.insert(key, entry)
        });
        tracer.close(root);
    }
}

/// Replayer error on the seven families: predicted against ground-truth
/// iteration time of the allocator's own plan (the paper reports under 5%).
fn replayer_error_pct() -> f64 {
    let families = [
        "small_mlp",
        "small_cnn",
        "resnet50",
        "vgg16",
        "vgg16bn",
        "bert",
        "roberta",
    ];
    let errors: Vec<f64> = families
        .iter()
        .map(|family| {
            let request = PlanRequest::new(
                0,
                qsync_api::ModelSpec::parse(family).expect("zoo family parses"),
                gen::resident_cluster(),
            );
            let system = QSyncSystem::new(
                request.model.build(),
                request.effective_cluster(),
                request.config(),
            );
            let (plan, _) = Allocator::new(&system).allocate(&system.indicator());
            let truth = system.ground_truth_mean_us(&plan, 10);
            100.0 * (system.predict_iteration_us(&plan) - truth).abs() / truth
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

fn cold_pass(tracer: &mut Tracer, layers: &mut Layers, seed: &Rng) -> Result<u64, String> {
    let engine = PlanEngine::new();
    let mut stream = ColdStream::new(seed, 0);
    let mut wire_bytes = (Vec::new(), Vec::new());
    let mut counts = [0.0; 4];
    for index in 0..COLD_REQUESTS as u32 {
        let request = stream.next_request();
        let stages_of = request.clone();
        let (_, plan_span, response) = request_path(
            tracer,
            index,
            request,
            &engine,
            "engine.plan_cold",
            &mut wire_bytes,
        )?;
        if response.outcome != PlanOutcome::ColdPlanned {
            return Err(format!(
                "request {index}: a fresh key was {:?}",
                response.outcome
            ));
        }
        // The stages of a cold plan, on the same request.
        let request = stages_of;
        let (system, _) = tracer.call("core.system_build", plan_span, index, || {
            QSyncSystem::new(
                request.model.build(),
                request.effective_cluster(),
                request.config(),
            )
        });
        let (indicator, _) = tracer.call("core.indicator", plan_span, index, || system.indicator());
        let allocator = Allocator::new(&system);
        let rank = system.cluster.inference_ranks()[0];
        let (initial, _) = tracer.call("core.initial_setting", plan_span, index, || {
            allocator.initial_setting(rank)
        });
        let ((plan, report), _) = tracer.call("core.recovery", plan_span, index, || {
            allocator.allocate_from_initial(&indicator, &initial)
        });
        let (predicted, _) =
            tracer.call("core.predict", plan_span, index, || system.predict(&plan));
        if plan != response.plan || predicted.iteration_us != response.predicted_iteration_us {
            return Err(format!(
                "request {index}: the stages produced a different plan than the engine"
            ));
        }
        for (slot, value) in counts.iter_mut().zip([
            report.candidates_evaluated,
            report.full_predicts,
            report.promotions_accepted,
            report.promotions_rejected,
        ]) {
            *slot += value as f64 / COLD_REQUESTS as f64;
        }
    }
    let entries: Vec<CachedPlan> = engine
        .cache()
        .entries()
        .into_iter()
        .map(|(_, e)| e)
        .collect();
    insert_evict_pass(tracer, &entries);

    layers.take_medians(tracer);
    set_wire_bytes(layers, &wire_bytes);
    layers.set(
        "engine.cold_overhead_us",
        layers.get("engine.plan_cold_us")
            - layers.get("core.system_build_us")
            - layers.get("core.indicator_us")
            - layers.get("core.initial_setting_us")
            - layers.get("core.recovery_us"),
    );
    layers.set("core.candidates_evaluated", counts[0]);
    layers.set("core.full_predicts", counts[1]);
    layers.set("core.promotions_accepted", counts[2]);
    layers.set("core.promotions_rejected", counts[3]);
    layers.set("replayer.err_pct", replayer_error_pct());
    Ok(COLD_REQUESTS as u64)
}

fn churn_pass(
    tracer: &mut Tracer,
    layers: &mut Layers,
    seed: &Rng,
    resident: &[PlanRequest],
) -> Result<u64, String> {
    // `engine` takes each delta whole; `staged` holds the same plans and
    // takes the same delta stage by stage right after, so the whole call
    // never finds a stage's result already cached.
    let (engine, staged) = (PlanEngine::new(), PlanEngine::new());
    for request in resident {
        engine
            .plan(request)
            .map_err(|e| format!("set-up plan: {e:?}"))?;
        staged
            .plan(request)
            .map_err(|e| format!("set-up plan: {e:?}"))?;
    }
    let mut stream = ChurnStream::new(seed, 1);
    let mut wire_bytes = (Vec::new(), Vec::new());
    let (mut invalidated, mut demotions, mut deltas) = (0.0, 0.0, 0u32);
    let mut request_index = 0;
    for _ in 0..CHURN_CYCLES {
        let cycle = stream.next_cycle();
        for request in &cycle.plans {
            request_path(
                tracer,
                request_index,
                request.clone(),
                &engine,
                "engine.plan_cold",
                &mut wire_bytes,
            )?;
            staged
                .plan(request)
                .map_err(|e| format!("staged plan: {e:?}"))?;
            request_index += 1;
        }
        for (delta, new_shape) in cycle.deltas.iter().zip(&cycle.shapes) {
            let root = tracer.open("delta", None, deltas);
            let (response, whole) = tracer.call("elastic.apply_delta", root, deltas, || {
                engine.apply_delta(delta)
            });
            let response = response.map_err(|e| format!("delta {}: {e:?}", delta.id))?;
            if response.invalidated != cycle.plans.len()
                || response.replanned.len() != cycle.plans.len()
            {
                return Err(format!(
                    "delta {}: invalidated {} of {}",
                    delta.id,
                    response.invalidated,
                    cycle.plans.len()
                ));
            }
            invalidated += response.invalidated as f64;
            demotions += response
                .replanned
                .iter()
                .map(|r| r.warm_demotions as f64)
                .sum::<f64>();

            // Its stages: invalidation, then the evicted entries' warm
            // re-plan chains back to back (one span for the delta's four,
            // which differ too much in cost for a per-chain median to add
            // up), then the allocator calls those chains make.
            let old_shape = delta.cluster.fingerprint();
            let (evicted, _) = tracer.call("cache.invalidate", whole, deltas, || {
                staged.cache().invalidate_cluster(old_shape)
            });
            if evicted.len() != cycle.plans.len() {
                return Err(format!(
                    "invalidate_cluster evicted {} of {}",
                    evicted.len(),
                    cycle.plans.len()
                ));
            }
            let chains: Vec<ReplanChain> = evicted
                .into_iter()
                .map(|(_, entry)| ReplanChain {
                    entry,
                    shapes: vec![new_shape.clone()],
                    trace_id: 0,
                })
                .collect();
            let (replanned, _) = tracer.call("elastic.replan_chain", whole, deltas, || {
                chains
                    .iter()
                    .map(|chain| staged.run_replan_chain(chain))
                    .collect::<Vec<_>>()
            });
            let mut expected: Vec<&str> =
                response.replanned.iter().map(|r| r.key.as_str()).collect();
            let mut staged_keys: Vec<&str> = replanned.iter().map(|r| r.key.as_str()).collect();
            expected.sort_unstable();
            staged_keys.sort_unstable();
            if staged_keys != expected
                || replanned
                    .iter()
                    .any(|r| r.outcome != PlanOutcome::WarmReplanned)
            {
                return Err(format!(
                    "delta {}: the staged chains re-planned other keys than the whole call",
                    delta.id
                ));
            }
            let warm_inputs: Vec<_> = chains
                .iter()
                .map(|chain| {
                    let mut moved = chain.entry.request.clone();
                    moved.cluster = new_shape.clone();
                    let system = QSyncSystem::new(
                        moved.model.build(),
                        moved.effective_cluster(),
                        moved.config(),
                    );
                    let t_min_us = Allocator::new(&system)
                        .initial_setting(system.cluster.inference_ranks()[0])
                        .t_min_us;
                    (system, t_min_us, chain.entry.inference_pdag.clone())
                })
                .collect();
            let _ = tracer.call("core.allocate_warm", whole, deltas, || {
                for (system, t_min_us, warm) in &warm_inputs {
                    if let Some(warm) = warm {
                        black_box(Allocator::new(system).allocate_warm_with_tmin(
                            &system.indicator(),
                            warm,
                            *t_min_us,
                        ));
                    }
                }
            });
            tracer.close(root);
            deltas += 1;
        }
    }
    layers.take_medians(tracer);
    set_wire_bytes(layers, &wire_bytes);
    layers.set("elastic.invalidated_per_delta", invalidated / deltas as f64);
    layers.set("elastic.warm_demotions", demotions / deltas as f64);
    Ok(request_index as u64 + deltas as u64)
}

/// The server's own view, from one `Metrics` scrape after the TCP pass.
fn set_server_counters(layers: &mut Layers, metrics: &MetricsSnapshot) {
    let p50 = |name: &str| metrics.histogram(name).map_or(0.0, |h| h.p50() as f64);
    let count = |name: &str| metrics.counter(name).unwrap_or(0) as f64;
    layers.set(
        "server.plan_hit_p50_us",
        p50("qsync_plan_latency_us{kind=\"hit\"}"),
    );
    layers.set(
        "server.plan_cold_p50_us",
        p50("qsync_plan_latency_us{kind=\"cold\"}"),
    );
    layers.set(
        "server.plan_warm_p50_us",
        p50("qsync_plan_latency_us{kind=\"warm\"}"),
    );
    layers.set(
        "sched.dispatch_wait_p50_ms",
        p50("qsync_sched_dispatch_wait_ms"),
    );
    layers.set("cache.hits", count("qsync_cache_hits_total"));
    layers.set("cache.misses", count("qsync_cache_misses_total"));
    layers.set("cache.evicted", count("qsync_cache_evicted_total"));
    layers.set("cache.invalidated", count("qsync_cache_invalidated_total"));
    layers.set("engine.memo_hits", count("qsync_engine_memo_hits_total"));
    layers.set(
        "engine.memo_misses",
        count("qsync_engine_memo_misses_total"),
    );
    layers.set(
        "engine.profile_memo_hits",
        count("qsync_engine_profile_memo_hits_total"),
    );
    layers.set(
        "engine.singleflight_coalesced",
        count("qsync_engine_singleflight_coalesced_total"),
    );
    layers.set(
        "transport.rate_limited",
        count("qsync_transport_rate_limited_total{scope=\"conn\"}")
            + count("qsync_transport_rate_limited_total{scope=\"client\"}"),
    );
    layers.set("pool.jobs", count("qsync_pool_jobs_total"));
    layers.set("pool.steals", count("qsync_pool_steals_total"));
}

/// Traced run of a serving workload: the in-process pass, then one
/// connection against the child for a third of `seconds`, then one scrape.
pub fn run_serving(workload: &str, seed: u64, seconds: f64, bin: &Path) -> Result<Outcome, String> {
    let rng = Rng::new(seed);
    let resident = if workload == "cold_sweep" {
        Vec::new()
    } else {
        gen::resident_set(&rng)
    };
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let in_process = match workload {
        "hit_zipf" => hit_pass(&mut tracer, &mut layers, &rng, &resident)?,
        "cold_sweep" => cold_pass(&mut tracer, &mut layers, &rng)?,
        _ => churn_pass(&mut tracer, &mut layers, &rng, &resident)?,
    };

    let mut ready = serving::setup(workload, bin, &resident)?;
    let pass_started = tracer.now_ns() as f64 / 1e9 + serving::PASS_WARMUP.as_secs_f64();
    let (round_trips, tally) = serving::single_connection_pass(
        workload,
        &rng,
        ready.server.addr,
        &resident,
        &ready.reference,
        seconds / 3.0,
    )?;
    for (i, &(at, us)) in round_trips.0.iter().enumerate() {
        tracer.record("tcp.round_trip", i as u32, pass_started + at, us);
    }
    let metrics = serving::scrape(ready.server.addr)?;
    if let Some(status) = ready.server.exit_status() {
        return Err(format!(
            "qsync-serve ended before the traced pass did ({status})"
        ));
    }
    ready.server.stop();
    set_server_counters(&mut layers, &metrics);

    if workload == "hit_zipf" {
        // Where one hit's round trip goes: the stages this file can time
        // in-process, and everything it cannot (syscalls, thread hops, queue
        // waits) as the remainder.
        let rtt = tracer.median_us("tcp.round_trip");
        let in_process_sum = [
            "client.encode_us",
            "api.parse_line_us",
            "sched.submit_next_us",
            "engine.plan_hit_us",
            "api.render_reply_us",
            "client.decode_us",
        ]
        .iter()
        .map(|name| layers.get(name))
        .sum::<f64>();
        layers.set("hit.tcp_rtt_us", rtt);
        layers.set("hit.inproc_sum_us", in_process_sum);
        layers.set("hit.unattributed_us", rtt - in_process_sum);
        layers.set(
            "hit.unattributed_share",
            100.0 * (rtt - in_process_sum) / rtt,
        );
    }

    let shares = stage_shares(&tracer);
    let within = shares
        .iter()
        .all(|(_, share)| share.as_f64().is_some_and(|s| s <= 1.10));
    let trace_file = tracer.write(workload)?;
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: in_process + tally.attempted,
        failed: tally.failed,
        metrics: layers.in_table_order(),
        detail: json!({
            "spans": tracer.spans.len() as u64,
            "trace_file": trace_file,
            "in_process_requests": in_process,
            "tcp_round_trips": round_trips.0.len() as u64,
            "tcp_round_trip_p50_us": tracer.median_us("tcp.round_trip"),
            "stage_sum_over_whole_call": serde_json::Value::Object(shares),
            "stage_sums_within_110_percent": within,
            "problems": tally.notes,
        }),
    })
}

/// One forward pass worth of GEMMs at the trainer's layer shapes.
fn kernel_pass(tracer: &mut Tracer, layers: &mut Layers) {
    let tile = TileConfig::fallback();
    let shapes: Vec<(usize, usize, usize)> = TRAIN_DIMS
        .windows(2)
        .map(|pair| (TRAIN_BATCH, pair[0], pair[1]))
        .collect();
    let operands: Vec<(Vec<f32>, Vec<f32>)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n))| {
            (
                Tensor::randn(vec![m, k], i as u64).into_vec(),
                Tensor::randn(vec![k, n], 100 + i as u64).into_vec(),
            )
        })
        .collect();
    let quantizer = FixedQuantizer::int8_per_tensor();
    let quantized: Vec<_> = shapes
        .iter()
        .zip(&operands)
        .map(|(&(m, k, n), (a, b))| {
            (
                quantizer.quantize_seeded(a, &[m, k], 1),
                quantizer.quantize_seeded(b, &[k, n], 2),
            )
        })
        .collect();
    for repeat in 0..KERNEL_REPEATS as u32 {
        let root = tracer.open("kernels.forward_pass", None, repeat);
        let _ = tracer.call("kernels.gemm_f32", root, repeat, || {
            for (&(m, k, n), (a, b)) in shapes.iter().zip(&operands) {
                black_box(gemm_f32(a, b, m, k, n, &tile));
            }
        });
        let _ = tracer.call("kernels.gemm_f16", root, repeat, || {
            for (&(m, k, n), (a, b)) in shapes.iter().zip(&operands) {
                black_box(gemm_f16(a, b, m, k, n, &tile, Precision::Fp32));
            }
        });
        let _ = tracer.call("kernels.gemm_i8", root, repeat, || {
            for (&(m, k, n), (qa, qb)) in shapes.iter().zip(&quantized) {
                black_box(gemm_i8(
                    &qa.data,
                    &qb.data,
                    m,
                    k,
                    n,
                    qa.params.scales[0],
                    &qb.params.scales,
                    None,
                    &tile,
                ));
            }
        });
        let _ = tracer.call("kernels.quantize", root, repeat, || {
            for (&(m, k, _), (a, _)) in shapes.iter().zip(&operands) {
                black_box(quantizer.quantize_seeded(a, &[m, k], 3));
            }
        });
        tracer.close(root);
    }
    // Computed from the shapes, not measured: 2mkn operations per GEMM, and
    // each f32 operand and result crossing memory once.
    let flops: usize = shapes.iter().map(|&(m, k, n)| 2 * m * k * n).sum();
    let bytes: usize = shapes
        .iter()
        .map(|&(m, k, n)| 4 * (m * k + k * n + m * n))
        .sum();
    layers.set("kernels.gemm_flops", flops as f64);
    layers.set("kernels.bytes_moved", bytes as f64);
}

/// Traced run of `train_mixed`: the trainer's step, taken apart with the
/// same public calls `DataParallelTrainer::step` makes.
pub fn run_train(seed: u64) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (data, _) = train::dataset(seed);
    let precisions = train::worker_precisions();
    let shards = data.shard(precisions.len());
    let mut workers: Vec<MlpModel> = precisions
        .iter()
        .map(|p| {
            let mut model = MlpModel::new(&TRAIN_DIMS, seed);
            model.set_precisions(p);
            model
        })
        .collect();
    let mut optimizers: Vec<Optimizer> = workers
        .iter()
        .map(|w| Optimizer::new(train::optimizer(), &w.param_shapes()))
        .collect();

    let pool_before = qsync_pool::current_stats();
    let mut finite = true;
    for step in 0..TRAIN_STEPS as u32 {
        let batches: Vec<_> = shards
            .iter()
            .map(|s| s.batch(step as usize * TRAIN_BATCH, TRAIN_BATCH))
            .collect();
        let root = tracer.open("train.step", None, step);
        let (loss, _) = tracer.call("train.forward", root, step, || {
            workers
                .iter_mut()
                .zip(&batches)
                .map(|(w, (x, y))| w.forward_loss(x, y))
                .sum::<f64>()
        });
        let _ = tracer.call("train.backward", root, step, || {
            workers.iter_mut().for_each(MlpModel::backward)
        });
        let (averaged, _) = tracer.call("train.allreduce", root, step, || {
            let all: Vec<Vec<Tensor>> = workers.iter().map(MlpModel::gradients).collect();
            (0..all[0].len())
                .map(|p| {
                    let mut mean = all[0][p].clone();
                    all.iter()
                        .skip(1)
                        .for_each(|g| mean.axpy_inplace(1.0, &g[p]));
                    mean.scale_inplace(1.0 / all.len() as f32);
                    mean
                })
                .collect::<Vec<Tensor>>()
        });
        let _ = tracer.call("train.update", root, step, || {
            workers
                .iter_mut()
                .zip(optimizers.iter_mut())
                .for_each(|(w, opt)| w.apply_update(opt, &averaged));
        });
        tracer.close(root);
        finite &= loss.is_finite();
    }
    let pool_after = qsync_pool::current_stats();
    kernel_pass(&mut tracer, &mut layers);
    layers.take_medians(&tracer);
    layers.set("pool.jobs", (pool_after.jobs - pool_before.jobs) as f64);
    layers.set(
        "pool.steals",
        (pool_after.steals - pool_before.steals) as f64,
    );

    let trace_file = tracer.write("train_mixed")?;
    Ok(Outcome {
        correct: finite,
        attempted: TRAIN_STEPS as u64,
        failed: if finite { 0 } else { 1 },
        metrics: layers.in_table_order(),
        detail: json!({
            "spans": tracer.spans.len() as u64,
            "trace_file": trace_file,
            "steps": TRAIN_STEPS as u64,
            "step_p50_us": tracer.median_us("train.step"),
            "stage_sum_over_whole_call": serde_json::Value::Object(stage_shares(&tracer)),
            "pool_env": format!("{}={}", config::POOL_PIN.0, config::POOL_PIN.1),
            "problems": Vec::<String>::new(),
        }),
    })
}
