//! Plan request/response types of the serving protocol.
//!
//! These structs are the wire payload of the `Plan` command (one JSON object
//! per line, possibly inside a v1 [`RequestEnvelope`](crate::RequestEnvelope))
//! *and* the in-process API of `qsync-serve`'s `PlanEngine`.

use serde::{Deserialize, Serialize};

use qsync_cluster::device::Device;
use qsync_cluster::topology::ClusterSpec;
use qsync_core::plan::PrecisionPlan;
use qsync_core::system::QSyncConfig;
use qsync_graph::Fingerprint;
use qsync_sched::{JobMeta, Priority};

use crate::error::ApiError;
use crate::model::ModelSpec;

/// Which sensitivity indicator drives precision recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IndicatorChoice {
    /// QSync's variance-increment indicator (Proposition 3) — the default.
    #[default]
    Variance,
    /// The HAWQ-style Hessian baseline.
    Hessian,
    /// The random baseline.
    Random,
}

/// One plan request: a model from the zoo, a cluster, and planning constraints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Caller-chosen id echoed in the response (responses may arrive out of
    /// order under concurrency).
    pub id: u64,
    /// The model to plan for.
    pub model: ModelSpec,
    /// The cluster to plan against.
    pub cluster: ClusterSpec,
    /// Indicator choice.
    pub indicator: IndicatorChoice,
    /// Throughput constraint: maximum relative slowdown the recovery phase may
    /// accept over the fastest feasible plan. `None` uses the system default.
    pub throughput_tolerance: Option<f64>,
    /// Memory constraint: cap the inference devices' available memory to this
    /// fraction (the paper's ClusterB-style partial sharing). `None` leaves
    /// the cluster as specified.
    pub memory_limit_fraction: Option<f64>,
    /// Scheduling class of this request. `None` (and absent on the wire)
    /// defaults to [`Priority::Interactive`] — the pre-scheduler behavior.
    pub priority: Option<Priority>,
    /// Fair-queuing identity: requests sharing a `client_id` share one DRR
    /// queue and cannot starve other clients. `None` defaults to the
    /// **connection identity** on the streaming paths (each connection gets
    /// its own queue), so an anonymous flood on one connection cannot starve
    /// the rest of the fleet.
    pub client_id: Option<String>,
    /// Relative deadline in milliseconds from ingress. Routes the request
    /// through the scheduler's EDF lane; completion past the deadline is
    /// counted as a miss in `Stats` replies.
    pub deadline_ms: Option<u64>,
    /// DRR weight of this request's fair-queuing client (latest submit wins;
    /// clamped to a minimum of 1, absent means 1). A client of weight `w`
    /// receives `w` quantums of deficit per round — a paying tenant can be
    /// given a larger service share straight from the wire. Like the other
    /// scheduling fields it never enters [`cache_key`](Self::cache_key).
    pub weight: Option<u32>,
    /// Observability correlation id (v1): when set, the server threads this
    /// id through parse → scheduler → engine → reply and stamps it on every
    /// [`ServerEvent`](crate::ServerEvent) the request causes; the `Trace`
    /// command returns the recorded spans. When absent the server mints one
    /// and echoes it in [`PlanResponse::trace_id`]. Never part of
    /// [`cache_key`](Self::cache_key) — it changes *when* a plan is traced,
    /// never *what* is computed.
    pub trace_id: Option<u64>,
}

impl PlanRequest {
    /// A request with default constraints and the variance indicator.
    pub fn new(id: u64, model: ModelSpec, cluster: ClusterSpec) -> Self {
        PlanRequest {
            id,
            model,
            cluster,
            indicator: IndicatorChoice::Variance,
            throughput_tolerance: None,
            memory_limit_fraction: None,
            priority: None,
            client_id: None,
            deadline_ms: None,
            weight: None,
            trace_id: None,
        }
    }

    /// The scheduling metadata this request resolves to (absent fields fall
    /// back to the scheduler defaults: interactive, the anonymous client —
    /// which the streaming server replaces with the connection identity —
    /// weight 1, and no deadline).
    pub fn job_meta(&self) -> JobMeta {
        JobMeta {
            client: self.client_id.clone().unwrap_or_default(),
            priority: self.priority.unwrap_or_default(),
            deadline_after_ms: self.deadline_ms,
            weight: self.weight.unwrap_or(1).max(1),
            trace_id: self.trace_id.unwrap_or(0),
            ..JobMeta::default()
        }
    }

    /// Validate the request before any planning machinery sees it, so
    /// malformed wire input becomes an error reply instead of a worker panic
    /// (the cluster/device constructors assert on out-of-range fractions).
    ///
    /// Messages are unchanged from protocol v0; v1 additionally names the
    /// offending field in [`ApiError::field`].
    pub fn validate(&self) -> Result<(), ApiError> {
        if let Some(f) = self.memory_limit_fraction {
            if !(f > 0.0 && f <= 1.0) {
                return Err(ApiError::invalid_field(
                    "memory_limit_fraction",
                    format!("memory_limit_fraction must be in (0, 1], got {f}"),
                ));
            }
        }
        if let Some(t) = self.throughput_tolerance {
            if !(t.is_finite() && t >= 0.0) {
                return Err(ApiError::invalid_field(
                    "throughput_tolerance",
                    format!("throughput_tolerance must be a finite value >= 0, got {t}"),
                ));
            }
        }
        if self.cluster.devices.is_empty() {
            return Err(ApiError::invalid_field("cluster", "cluster has no devices"));
        }
        for (i, d) in self.cluster.devices.iter().enumerate() {
            if d.id != i {
                return Err(ApiError::invalid_field(
                    "cluster",
                    format!("cluster device at position {i} has rank {} (ranks must be dense and in order)", d.id),
                ));
            }
            let (m, c) = (d.share.memory_fraction(), d.share.compute_fraction());
            if !(m > 0.0 && m <= 1.0 && c > 0.0 && c <= 1.0) {
                return Err(ApiError::invalid_field(
                    "cluster",
                    format!("device {i} has share fractions outside (0, 1]: memory {m}, compute {c}"),
                ));
            }
        }
        if !(self.cluster.inter_cluster_gbs.is_finite() && self.cluster.inter_cluster_gbs > 0.0) {
            return Err(ApiError::invalid_field(
                "cluster",
                format!("inter_cluster_gbs must be finite and > 0, got {}", self.cluster.inter_cluster_gbs),
            ));
        }
        Ok(())
    }

    /// The cluster the planner actually sees: the requested cluster with the
    /// memory constraint (if any) applied to its inference devices.
    pub fn effective_cluster(&self) -> ClusterSpec {
        let mut cluster = self.cluster.clone();
        if let Some(fraction) = self.memory_limit_fraction {
            for d in cluster.devices.iter_mut() {
                if d.is_inference() {
                    let compute = d.share.compute_fraction();
                    *d = Device::partial(d.id, d.model, fraction, compute);
                }
            }
        }
        cluster
    }

    /// The planner configuration this request resolves to.
    pub fn config(&self) -> QSyncConfig {
        let mut config = QSyncConfig::default();
        if let Some(tol) = self.throughput_tolerance {
            config.throughput_tolerance = tol;
        }
        config
    }

    /// The content-addressed cache key: a stable fingerprint of the
    /// canonicalized model DAG, the *effective* cluster, and every constraint
    /// that changes what the allocator would produce. The request `id` and
    /// the scheduling fields (`priority`, `client_id`, `deadline_ms`,
    /// `weight`) are deliberately excluded — they change *when* a plan is
    /// computed, never *what* is computed.
    pub fn cache_key(&self) -> String {
        let mut fp = Fingerprint::new();
        fp.write_str("qsync_serve::PlanRequest/v1");
        let model_fp = self.model.fingerprint();
        fp.write_u64(model_fp as u64);
        fp.write_u64((model_fp >> 64) as u64);
        let cluster_fp = self.effective_cluster().fingerprint();
        fp.write_u64(cluster_fp as u64);
        fp.write_u64((cluster_fp >> 64) as u64);
        fp.write_serialize(&self.indicator);
        fp.write_f64(self.config().throughput_tolerance);
        fp.finish_hex()
    }

    /// Fingerprint of the cluster as requested (before constraints), the key
    /// elasticity events match on.
    pub fn cluster_fingerprint(&self) -> u128 {
        self.cluster.fingerprint()
    }
}

/// How the server produced a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanOutcome {
    /// Full cold planning: profile, initial setting, recovery.
    ColdPlanned,
    /// Served byte-identical from the plan cache.
    CacheHit,
    /// Re-planned from a cached assignment via the allocator's warm start.
    WarmReplanned,
}

/// One plan response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanResponse {
    /// Echo of the request id.
    pub id: u64,
    /// The content-addressed cache key this request resolved to.
    pub key: String,
    /// How the plan was produced.
    pub outcome: PlanOutcome,
    /// The precision plan.
    pub plan: PrecisionPlan,
    /// Predicted iteration latency of the plan (microseconds).
    pub predicted_iteration_us: f64,
    /// The allocator's `T_min` throughput bound (microseconds).
    pub t_min_us: f64,
    /// Precision promotions accepted during the recovery run that produced
    /// this plan (replayed unchanged on cache hits — it describes the plan's
    /// provenance, not this request's work).
    pub promotions_accepted: usize,
    /// Operators demoted while clamping a warm start to the shrunk device
    /// (also provenance; replayed on cache hits).
    pub warm_demotions: usize,
    /// Wall-clock time the server spent producing this response (microseconds).
    pub elapsed_us: u64,
    /// The trace id this request was served under (echo of
    /// [`PlanRequest::trace_id`], or the server-minted one). `None` from
    /// paths that do not trace (the schedulerless one-shot engine API).
    pub trace_id: Option<u64>,
}

impl PlanResponse {
    /// The serialized plan. Serialization is deterministic, so this is
    /// byte-identical across cache hits of the same key.
    pub fn plan_json(&self) -> String {
        self.plan.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> PlanRequest {
        PlanRequest::new(
            7,
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ClusterSpec::hybrid_small(),
        )
    }

    #[test]
    fn cache_key_ignores_request_id() {
        let a = request();
        let mut b = request();
        b.id = 99;
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn cache_key_sees_constraints() {
        let a = request();
        let mut b = request();
        b.memory_limit_fraction = Some(0.3);
        let mut c = request();
        c.throughput_tolerance = Some(0.5);
        let mut d = request();
        d.indicator = IndicatorChoice::Random;
        let keys = [a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }

    /// `cache_key` as it was before the model-fingerprint memo: the DAG is
    /// built and fingerprinted on the spot.
    fn unmemoized_key(request: &PlanRequest) -> String {
        let mut fp = Fingerprint::new();
        fp.write_str("qsync_serve::PlanRequest/v1");
        let model_fp = request.model.build().fingerprint();
        fp.write_u64(model_fp as u64);
        fp.write_u64((model_fp >> 64) as u64);
        let cluster_fp = request.effective_cluster().fingerprint();
        fp.write_u64(cluster_fp as u64);
        fp.write_u64((cluster_fp >> 64) as u64);
        fp.write_serialize(&request.indicator);
        fp.write_f64(request.config().throughput_tolerance);
        fp.finish_hex()
    }

    #[test]
    fn memoized_cache_key_equals_the_unmemoized_formula_across_a_memo_clear() {
        use crate::model::{fingerprint_memo_len, MODEL_FINGERPRINT_MEMO_CAP};
        let zoo: Vec<PlanRequest> = [
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ModelSpec::SmallCnn { batch: 4, image: 16, classes: 10 },
            ModelSpec::Resnet50 { batch: 2, image: 32 },
            ModelSpec::Vgg16 { batch: 2, image: 32 },
            ModelSpec::Vgg16Bn { batch: 2, image: 32 },
            ModelSpec::BertBase { batch: 2, seq: 16 },
            ModelSpec::RobertaBase { batch: 2, seq: 16 },
        ]
        .into_iter()
        .map(|model| PlanRequest::new(1, model, ClusterSpec::hybrid_small()))
        .collect();
        let check = |when: &str| {
            for request in &zoo {
                let want = unmemoized_key(request);
                // Twice: the memo miss and the memo hit.
                assert_eq!(request.cache_key(), want, "{when}, miss: {:?}", request.model);
                assert_eq!(request.cache_key(), want, "{when}, hit: {:?}", request.model);
            }
        };
        check("before the flood");
        // More distinct specs than the memo holds: it must clear, stay
        // bounded, and keep answering with the same fingerprints.
        for classes in 1..=MODEL_FINGERPRINT_MEMO_CAP + 1 {
            let spec = ModelSpec::SmallMlp { batch: 1, in_features: 2, hidden: 2, classes };
            assert_eq!(spec.fingerprint(), spec.build().fingerprint());
            assert!(fingerprint_memo_len() <= MODEL_FINGERPRINT_MEMO_CAP);
        }
        check("after the flood");
    }

    #[test]
    fn cache_key_sees_every_model_hyperparameter() {
        let base = request();
        for model in [
            ModelSpec::SmallMlp { batch: 9, in_features: 16, hidden: 32, classes: 4 },
            ModelSpec::SmallMlp { batch: 8, in_features: 17, hidden: 32, classes: 4 },
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 33, classes: 4 },
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 5 },
        ] {
            let mut other = request();
            other.model = model;
            assert_ne!(base.cache_key(), other.cache_key(), "{:?}", other.model);
        }
    }

    #[test]
    fn effective_cluster_caps_inference_memory_only() {
        let mut req = request();
        req.memory_limit_fraction = Some(0.25);
        let base = req.cluster.clone();
        let eff = req.effective_cluster();
        for (b, e) in base.devices.iter().zip(eff.devices.iter()) {
            if b.is_inference() {
                assert!(e.available_memory_bytes() < b.available_memory_bytes());
            } else {
                assert_eq!(e.available_memory_bytes(), b.available_memory_bytes());
            }
        }
    }

    #[test]
    fn validate_rejects_malformed_wire_input_naming_the_field() {
        let mut bad_mem = request();
        bad_mem.memory_limit_fraction = Some(1.5);
        let err = bad_mem.validate().unwrap_err();
        assert_eq!(err.code, crate::ErrorCode::InvalidField);
        assert_eq!(err.field.as_deref(), Some("memory_limit_fraction"));
        bad_mem.memory_limit_fraction = Some(0.0);
        assert!(bad_mem.validate().is_err());
        bad_mem.memory_limit_fraction = Some(f64::NAN);
        assert!(bad_mem.validate().is_err());

        let mut bad_tol = request();
        bad_tol.throughput_tolerance = Some(-0.1);
        let err = bad_tol.validate().unwrap_err();
        assert_eq!(err.field.as_deref(), Some("throughput_tolerance"));

        let mut empty = request();
        empty.cluster.devices.clear();
        assert_eq!(empty.validate().unwrap_err().field.as_deref(), Some("cluster"));

        let mut sparse = request();
        sparse.cluster.devices[1].id = 7;
        assert!(sparse.validate().is_err());

        assert!(request().validate().is_ok());
    }

    #[test]
    fn cache_key_ignores_scheduling_fields() {
        let a = request();
        let mut b = request();
        b.priority = Some(Priority::Background);
        b.client_id = Some("tenant-42".into());
        b.deadline_ms = Some(250);
        b.weight = Some(8);
        b.trace_id = Some(77);
        assert_eq!(a.cache_key(), b.cache_key());
        let meta = b.job_meta();
        assert_eq!(meta.priority, Priority::Background);
        assert_eq!(meta.client, "tenant-42");
        assert_eq!(meta.deadline_after_ms, Some(250));
        assert_eq!(meta.weight, 8);
    }

    #[test]
    fn wire_weight_zero_clamps_to_one() {
        let mut req = request();
        req.weight = Some(0);
        assert_eq!(req.job_meta().weight, 1, "weight 0 would stall the DRR queue");
        req.weight = None;
        assert_eq!(req.job_meta().weight, 1);
    }

    #[test]
    fn wire_input_without_scheduling_fields_still_parses() {
        // A pre-scheduler client request (no priority/client_id/deadline_ms/
        // weight/trace_id keys at all) must deserialize to the defaults.
        let full = serde_json::to_string(&request()).unwrap();
        let mut value: serde::Value = serde_json::from_str(&full).unwrap();
        let serde::Value::Object(pairs) = &mut value else { panic!("request serializes as object") };
        let before = pairs.len();
        pairs.retain(|(k, _)| {
            !matches!(k.as_str(), "priority" | "client_id" | "deadline_ms" | "weight" | "trace_id")
        });
        assert_eq!(pairs.len(), before - 5, "all five post-v0 keys were present");
        let legacy = serde_json::to_string(&value).unwrap();
        let parsed: PlanRequest = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, request());
        let meta = parsed.job_meta();
        assert_eq!(meta.priority, Priority::Interactive);
        assert_eq!(meta.client, "");
        assert_eq!(meta.deadline_after_ms, None);
        assert_eq!(meta.weight, 1);
    }

    #[test]
    fn request_round_trips_through_json() {
        let mut req = request();
        req.throughput_tolerance = Some(0.01);
        req.priority = Some(Priority::Batch);
        req.client_id = Some("tenant-7".into());
        req.deadline_ms = Some(1500);
        req.weight = Some(4);
        req.trace_id = Some(321);
        let text = serde_json::to_string_pretty(&req).unwrap();
        let back: PlanRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, req);
    }
}
