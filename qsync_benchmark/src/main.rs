//! `qsync_benchmark` — the repository's benchmark. See README.md beside
//! Cargo.toml for the workloads, the metrics and how to read them.
//!
//! ```text
//! qsync_benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! qsync_benchmark --repeat-check [--seed <u64>] [--seconds <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it holds
//! the run's details (input digest, sample counts, fixed configuration).

mod config;
mod gen;
mod server;
mod serving;
mod stats;
mod trace;
mod train;

use serde_json::{json, Value};

/// What one run of one workload produced.
pub struct Outcome {
    /// Every reply was the one the request must produce, the child outlived
    /// the run, and enough operations completed for the reported statistics.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Value,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--repeat-check" {
            args.repeat_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be between 1 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if !config::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            config::WORKLOADS
        ));
    }
    let outcome = match (workload, trace) {
        ("train_mixed", false) => train::run(seed, seconds),
        ("train_mixed", true) => trace::run_train(seed),
        (_, false) => serving::run(workload, seed, seconds, &server::serve_binary()?),
        (_, true) => trace::run_serving(workload, seed, seconds, &server::serve_binary()?),
    }?;
    let expected: Vec<&str> = if trace {
        config::PER_LAYER.iter().map(|(name, _, _)| *name).collect()
    } else {
        config::END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = outcome.metrics.iter().map(|(name, _)| *name).collect();
    if reported != expected {
        return Err(format!(
            "{workload} reported {reported:?}, the tables list {expected:?}"
        ));
    }
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{workload}: metric {name} is {value}"));
    }
    Ok(outcome)
}

fn unit_of(name: &str) -> &'static str {
    config::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(config::PER_LAYER.iter().map(|(n, unit, _)| (*n, *unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .expect("metric is in the tables")
}

fn print_outcome(workload: &str, args: &Args, outcome: &Outcome) {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let detail = json!({
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc as u64,
        "detail": outcome.detail.clone(),
    });
    println!(
        "{}",
        serde_json::to_string(&detail).expect("detail serializes")
    );
    let metrics: Vec<(String, Value)> = outcome
        .metrics
        .iter()
        .map(|&(name, value)| {
            (
                name.to_string(),
                json!({ "value": value, "unit": unit_of(name) }),
            )
        })
        .collect();
    let last = json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&last).expect("result serializes")
    );
}

/// Run every workload twice on one seed; name every end-to-end metric whose
/// two values differ by more than its own bound.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let mut agree = true;
    for workload in config::WORKLOADS {
        let first = run_workload(workload, args.seed, args.seconds, false)?;
        let second = run_workload(workload, args.seed, args.seconds, false)?;
        if !(first.correct && second.correct) {
            println!(
                "{workload}: a run was not correct: {} / {}",
                first.detail_problems(),
                second.detail_problems()
            );
            agree = false;
        }
        if first.detail.get("input_digest") != second.detail.get("input_digest") {
            println!(
                "{workload}: input_digest differs between two runs of seed {}",
                args.seed
            );
            agree = false;
        }
        for (metric, (&(_, a), &(_, b))) in config::END_TO_END
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let ok = stats::within_bound(a, b, metric.better, metric.bound);
            println!(
                "{workload:14} {:16} {a:>14.4} {b:>14.4} {:>5} bound {:.2} {}",
                metric.name,
                metric.unit,
                metric.bound,
                if ok { "ok" } else { "DIFFERS" }
            );
            agree &= ok;
        }
    }
    Ok(agree)
}

impl Outcome {
    fn detail_problems(&self) -> String {
        self.detail
            .get("problems")
            .map(|p| serde_json::to_string(p).unwrap_or_default())
            .unwrap_or_default()
    }
}

fn main() {
    // The in-process passes (training, the traced layer calls) run the same
    // pool the child does, under the same pin. Set before any thread exists.
    std::env::set_var(config::POOL_PIN.0, config::POOL_PIN.1);
    let result = parse_args().and_then(|args| {
        if args.repeat_check {
            return repeat_check(&args);
        }
        let workload = args.workload.clone().ok_or("--workload is required")?;
        let outcome = run_workload(&workload, args.seed, args.seconds, args.trace)?;
        print_outcome(&workload, &args, &outcome);
        Ok(true)
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("qsync_benchmark: {message}");
            std::process::exit(2);
        }
    }
}
