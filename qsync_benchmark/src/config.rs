//! The fixed configuration of every run, and the metric tables.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with the
//! same units, directions and bounds (a unit test compares the two), but its
//! format has no room for per-workload settings, so those live here as
//! constants and are printed with every run.

use std::time::Duration;

use crate::stats::Better;

/// Flags of the `qsync-serve` child. One reactor and two workers: this host
/// has two cores, and a generator thread per connection takes its share.
pub const SERVER_ARGS: &[&str] = &[
    "serve",
    "--tcp",
    "127.0.0.1:0",
    "--workers",
    "2",
    "--reactors",
    "1",
];

/// Environment of the child, and of this process for the in-process passes.
/// The pool is pinned to inline execution because with two pool threads the
/// server dies under cold planning (see README.md, "The pool pin").
pub const POOL_PIN: (&str, &str) = ("QSYNC_POOL_THREADS", "1");
pub const SERVER_ENV: &[(&str, &str)] = &[POOL_PIN];

/// Closed loop: one generator thread per connection, each waiting for its
/// reply before it sends again, as a job controller asking for a plan does.
pub const CLIENTS: usize = 2;

/// Load applied and discarded before the measured window opens.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Requests at the head of each cold connection's seeded sequence over which
/// `quality` and `input_digest` are taken: four passes over the 224-spec zoo
/// and part of a fifth. A run that completes fewer fails.
pub const COLD_PREFIX: usize = 1000;
/// Churn cycles at the head of the write connection's sequence, likewise: two
/// walks over the 32 variants of each family and a quarter of a third.
pub const CHURN_PREFIX_CYCLES: usize = 72;
/// Hit requests at the head of each read connection's sequence in the digest.
pub const HIT_PREFIX: usize = 1000;

/// `train_mixed`: the fixed model, data and step at which accuracy is taken.
pub const TRAIN_SAMPLES: usize = 4096;
pub const TRAIN_DIMS: [usize; 5] = [128, 256, 256, 256, 16];
pub const TRAIN_BATCH: usize = 64;
pub const TRAIN_QUALITY_STEPS: usize = 300;

pub const WORKLOADS: [&str; 4] = ["hit_zipf", "cold_sweep", "elastic_churn", "train_mixed"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these; README.md says what each
/// means on each workload.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("latency_p50_us", "us", Better::Lower, 0.10),
    e2e("latency_tail_us", "us", Better::Lower, 0.20),
    e2e("quality", "score", Better::Higher, 0.15),
];

/// The percentile `latency_tail_us` reports on each workload: the highest
/// that keeps ten samples beyond it at the prototype's rates.
pub fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "hit_zipf" | "cold_sweep" => 99.0,
        _ => 90.0,
    }
}

/// `(name, unit, better)`. A traced run reports all of them; a layer the
/// workload does not execute reads 0.
pub const PER_LAYER: [(&str, &str, Better); 64] = [
    ("client.encode_us", "us", Better::Lower),
    ("client.decode_us", "us", Better::Lower),
    ("api.parse_line_us", "us", Better::Lower),
    ("api.validate_us", "us", Better::Lower),
    ("api.cache_key_us", "us", Better::Lower),
    ("graph.model_build_us", "us", Better::Lower),
    ("graph.fingerprint_us", "us", Better::Lower),
    ("cache.peek_us", "us", Better::Lower),
    ("cache.insert_evict_us", "us", Better::Lower),
    ("cache.invalidate_us", "us", Better::Lower),
    ("engine.plan_hit_us", "us", Better::Lower),
    ("engine.hit_self_us", "us", Better::Lower),
    ("sched.submit_next_us", "us", Better::Lower),
    ("api.render_reply_us", "us", Better::Lower),
    ("wire.request_bytes", "B", Better::Lower),
    ("wire.reply_bytes", "B", Better::Lower),
    ("hit.tcp_rtt_us", "us", Better::Lower),
    ("hit.inproc_sum_us", "us", Better::Lower),
    ("hit.unattributed_us", "us", Better::Lower),
    ("hit.unattributed_share", "%", Better::Lower),
    ("server.plan_hit_p50_us", "us", Better::Lower),
    ("server.plan_cold_p50_us", "us", Better::Lower),
    ("server.plan_warm_p50_us", "us", Better::Lower),
    ("sched.dispatch_wait_p50_ms", "ms", Better::Lower),
    ("cache.hits", "count", Better::Higher),
    ("cache.misses", "count", Better::Lower),
    ("cache.evicted", "count", Better::Lower),
    ("cache.invalidated", "count", Better::Lower),
    ("engine.memo_hits", "count", Better::Higher),
    ("engine.memo_misses", "count", Better::Lower),
    ("engine.profile_memo_hits", "count", Better::Higher),
    ("engine.singleflight_coalesced", "count", Better::Lower),
    ("transport.rate_limited", "count", Better::Lower),
    ("core.system_build_us", "us", Better::Lower),
    ("core.indicator_us", "us", Better::Lower),
    ("core.initial_setting_us", "us", Better::Lower),
    ("core.recovery_us", "us", Better::Lower),
    ("core.predict_us", "us", Better::Lower),
    ("core.candidates_evaluated", "count", Better::Lower),
    ("core.full_predicts", "count", Better::Lower),
    ("core.promotions_accepted", "count", Better::Higher),
    ("core.promotions_rejected", "count", Better::Lower),
    ("replayer.err_pct", "%", Better::Lower),
    ("engine.plan_cold_us", "us", Better::Lower),
    ("engine.cold_overhead_us", "us", Better::Lower),
    ("elastic.apply_delta_us", "us", Better::Lower),
    ("elastic.replan_chain_us", "us", Better::Lower),
    ("core.allocate_warm_us", "us", Better::Lower),
    ("elastic.invalidated_per_delta", "count", Better::Lower),
    ("elastic.warm_demotions", "count", Better::Lower),
    ("store.snapshot_us", "us", Better::Lower),
    ("store.load_us", "us", Better::Lower),
    ("store.bytes", "B", Better::Lower),
    ("train.forward_us", "us", Better::Lower),
    ("train.backward_us", "us", Better::Lower),
    ("train.update_us", "us", Better::Lower),
    ("kernels.gemm_f32_us", "us", Better::Lower),
    ("kernels.gemm_i8_us", "us", Better::Lower),
    ("kernels.gemm_f16_us", "us", Better::Lower),
    ("kernels.quantize_us", "us", Better::Lower),
    ("kernels.gemm_flops", "count", Better::Lower),
    ("kernels.bytes_moved", "B", Better::Lower),
    ("pool.jobs", "count", Better::Lower),
    ("pool.steals", "count", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must not drift.
    #[test]
    fn tables_match_benchmark_json() {
        let manifest: serde::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field =
            |v: &serde::Value, k: &str| v.get(k).and_then(|x| x.as_str().map(str::to_string));
        let direction = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };

        let listed = manifest
            .get("end_to_end")
            .and_then(|v| v.as_array().cloned())
            .unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (json, own) in listed.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(json, "name").unwrap(), own.name);
            assert_eq!(field(json, "unit").unwrap(), own.unit);
            assert_eq!(field(json, "better").unwrap(), direction(own.better));
            assert_eq!(
                json.get("bound").and_then(|b| b.as_f64()).unwrap(),
                own.bound
            );
        }
        let listed = manifest
            .get("per_layer")
            .and_then(|v| v.as_array().cloned())
            .unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (json, (name, unit, better)) in listed.iter().zip(PER_LAYER.iter()) {
            assert_eq!(field(json, "name").unwrap(), *name);
            assert_eq!(field(json, "unit").unwrap(), *unit);
            assert_eq!(field(json, "better").unwrap(), direction(*better));
        }
        let listed = manifest
            .get("workloads")
            .and_then(|v| v.as_array().cloned())
            .unwrap();
        let names: Vec<String> = listed.iter().map(|w| field(w, "name").unwrap()).collect();
        assert_eq!(names, WORKLOADS);
    }
}
