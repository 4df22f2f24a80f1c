//! `train_mixed`: real hybrid mixed-precision data-parallel training,
//! in-process. The only workload where `lp-kernels`, `tensor`, `train` and
//! the pool do the work and the serving layers do none.

use std::time::Instant;

use qsync_lp_kernels::precision::Precision;
use qsync_train::{DataParallelTrainer, OptimizerConfig, SyntheticClassification};
use serde_json::json;

use crate::config::{SETUP_REPEATS, TRAIN_BATCH, TRAIN_DIMS, TRAIN_QUALITY_STEPS, TRAIN_SAMPLES};
use crate::gen::Digest;
use crate::server::peak_rss_mb;
use crate::{config, stats, Outcome};

/// Worker 0 trains in full precision, as a training GPU does; worker 1 runs
/// the mixed assignment an inference GPU would be given.
pub fn worker_precisions() -> Vec<Vec<Precision>> {
    vec![
        vec![Precision::Fp32; TRAIN_DIMS.len() - 1],
        vec![
            Precision::Int8,
            Precision::Fp16,
            Precision::Int8,
            Precision::Fp32,
        ],
    ]
}

pub fn optimizer() -> OptimizerConfig {
    OptimizerConfig::Sgd {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
    }
}

/// The seeded task: training split and held-out quarter.
pub fn dataset(seed: u64) -> (SyntheticClassification, SyntheticClassification) {
    SyntheticClassification::generate(TRAIN_SAMPLES, TRAIN_DIMS[0], TRAIN_DIMS[4], seed)
        .train_test_split(0.25)
}

fn construct(seed: u64) -> (DataParallelTrainer, SyntheticClassification) {
    let (train, held_out) = dataset(seed);
    let trainer =
        DataParallelTrainer::new(&TRAIN_DIMS, &train, &worker_precisions(), optimizer(), seed)
            .with_batch_size(TRAIN_BATCH);
    (trainer, held_out)
}

/// FNV-64 of the generated dataset: the inputs of this workload.
fn input_digest(seed: u64) -> String {
    let (train, held_out) = dataset(seed);
    let mut digest = Digest::new();
    for data in [&train, &held_out] {
        let bits: String = data
            .features
            .data()
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        digest.line(&bits);
        digest.line(&format!("{:?}", data.labels));
    }
    digest.hex()
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        built = Some(construct(seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let (mut trainer, held_out) = built.expect("SETUP_REPEATS is at least one");

    // No warm-up is discarded: the first step is as much a step as the last.
    let samples_per_step = (TRAIN_BATCH * trainer.workers.len()) as f64;
    let started = Instant::now();
    let mut step_us = Vec::new();
    let mut step_at = Vec::new();
    let mut accuracy = None;
    let mut losses_finite = true;
    while started.elapsed().as_secs_f64() < seconds || step_us.len() < TRAIN_QUALITY_STEPS {
        let step_started = Instant::now();
        let loss = trainer.step();
        step_us.push(step_started.elapsed().as_secs_f64() * 1e6);
        step_at.push((step_started - started).as_secs_f64());
        losses_finite &= loss.is_finite();
        if step_us.len() == TRAIN_QUALITY_STEPS {
            // Evaluate a copy of the full-precision replica, so evaluation
            // leaves the training state alone. It falls between two steps,
            // off the step clock; the median block of `block_rate` absorbs it.
            accuracy = Some(trainer.workers[0].clone().evaluate(&held_out, TRAIN_BATCH) * 100.0);
        }
        if started.elapsed().as_secs_f64() > seconds * 4.0 {
            break; // a host too slow to reach the quality step fails below
        }
    }
    let in_sync = (trainer.weight_fingerprint(0) - trainer.weight_fingerprint(1)).abs() < 1e-6;

    let mut problems = Vec::new();
    if !losses_finite {
        problems.push("a training step returned a non-finite loss".to_string());
    }
    if !in_sync {
        problems.push("the replicas' weights diverged".to_string());
    }
    if accuracy.is_none() {
        problems.push(format!("fewer than {TRAIN_QUALITY_STEPS} steps completed"));
    }
    let tail = config::tail_percentile("train_mixed");
    if stats::samples_beyond(step_us.len(), tail) < 10 {
        problems.push(format!("{} steps cannot support p{tail}", step_us.len()));
    }

    let sorted = stats::sorted(step_us.clone());
    let attempted = step_us.len() as u64;
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: if losses_finite { 0 } else { 1 },
        metrics: vec![
            ("setup_s", stats::median(&setup_s)),
            ("peak_rss_mb", peak_rss_mb("/proc/self/status")?),
            (
                "ops_per_s",
                samples_per_step * stats::block_rate(step_at, seconds as usize),
            ),
            ("latency_p50_us", stats::percentile(&sorted, 50.0)),
            ("latency_tail_us", stats::percentile(&sorted, tail)),
            ("quality", accuracy.unwrap_or(f64::NAN)),
        ],
        detail: json!({
            "input_digest": input_digest(seed),
            "steps": attempted,
            "samples_per_step": samples_per_step,
            "quality_at_step": TRAIN_QUALITY_STEPS as u64,
            "tail_percentile": tail,
            "setup_s_each": setup_s,
            "dims": TRAIN_DIMS.to_vec(),
            "pool_env": format!("{}={}", config::POOL_PIN.0, config::POOL_PIN.1),
            "problems": problems,
        }),
    })
}
