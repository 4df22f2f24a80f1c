//! Allocator bench: full allocation (initial subgraph search + precision recovery) on
//! reduced-scale models, plus a micro-benchmark of the recovery loop's per-candidate
//! evaluation — the full clone-and-replay path against the incremental
//! [`DeltaEvaluator`].
//!
//! Besides the stdout report, a machine-readable summary is written to
//! `BENCH_allocator.json` in the working directory (CI smoke-runs this bench with
//! `QSYNC_BENCH_SMOKE=1` and validates that file).

use criterion::{BenchmarkId, Criterion};
use qsync_bench::experiments::setup;
use qsync_bench::smoke;
use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::Allocator;
use qsync_core::eval::DeltaEvaluator;
use qsync_core::plan::PrecisionPlan;
use qsync_core::system::QSyncSystem;
use qsync_lp_kernels::precision::Precision;

/// The candidate moves the recovery loop would evaluate from the initial assignment:
/// every adjustable operator stepped up to its next supported precision.
fn recovery_candidates(
    sys: &QSyncSystem,
    rank: usize,
    pdag: &qsync_graph::PrecisionDag,
) -> Vec<(qsync_graph::NodeId, Precision)> {
    let candidates = sys.candidates_for(rank);
    sys.dag()
        .adjustable_ops()
        .into_iter()
        .filter_map(|id| {
            let current = pdag.get(id);
            candidates.iter().copied().find(|c| *c > current).map(|next| (id, next))
        })
        .collect()
}

fn bench_allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group.sample_size(if smoke() { 2 } else { 10 });
    let models: &[&str] = if smoke() { &["vgg16bn"] } else { &["vgg16bn", "bert"] };
    for model in models {
        let system = setup::small_system(model, ClusterSpec::cluster_a(2, 2), 1);
        group.bench_with_input(BenchmarkId::new("allocate", model), &system, |b, sys| {
            b.iter(|| Allocator::new(sys).allocate(&sys.indicator()))
        });
        group.bench_with_input(BenchmarkId::new("allocate_reference", model), &system, |b, sys| {
            b.iter(|| Allocator::new(sys).allocate_reference(&sys.indicator()))
        });
    }

    // Per-candidate evaluation: what one iteration of the recovery heap loop costs.
    let sys = setup::small_system("vgg16bn", ClusterSpec::cluster_a(2, 2), 1);
    let rank = sys.cluster.inference_ranks()[0];
    let alloc = Allocator::new(&sys);
    let initial = alloc.initial_for_device(rank);
    let moves = recovery_candidates(&sys, rank, &initial);
    assert!(!moves.is_empty(), "vgg16bn must expose recovery candidates");

    group.bench_function("candidate_eval_full", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (node, next) = moves[i % moves.len()];
            i += 1;
            // The pre-refactor loop body: clone the DAG, cascade the move, check
            // memory, replicate a full plan and replay the global DFG.
            let mut tentative = initial.clone();
            let _ = tentative.set(sys.dag(), node, next);
            let mem_ok = sys.memory_ok(rank, &tentative);
            let plan =
                PrecisionPlan::from_inference_pdag("qsync_tentative", sys.dag(), &sys.cluster, &tentative);
            (mem_ok, sys.predict_iteration_us(&plan))
        })
    });

    group.bench_function("candidate_eval_incremental", |b| {
        let mut eval = DeltaEvaluator::new(&sys, rank, initial.clone());
        let mut i = 0usize;
        b.iter(|| {
            let (node, next) = moves[i % moves.len()];
            i += 1;
            eval.propose(node, next);
            let mem_ok = eval.memory_ok();
            let t = eval.iteration_us();
            eval.rollback();
            (mem_ok, t)
        })
    });

    group.finish();
}

fn mean_ns(c: &Criterion, id: &str) -> f64 {
    c.results
        .iter()
        .find(|(name, _)| name == &format!("allocator/{id}"))
        .map(|(_, ns)| *ns)
        .unwrap_or(f64::NAN)
}

/// Wall-clock a full cold allocation with the qsync-pool pinned to an
/// explicit size (median of `samples` runs, microseconds). The work is the
/// same at every size — the deterministic reduction contract fixes the
/// chunk layout — so the sweep isolates the pool's scaling.
fn cold_allocate_us(sys: &QSyncSystem, threads: usize, samples: usize) -> f64 {
    qsync_pool::Pool::with_threads(threads).install(|| {
        let mut runs: Vec<f64> = (0..samples)
            .map(|_| {
                let start = std::time::Instant::now();
                let (plan, _) = Allocator::new(sys).allocate(&sys.indicator());
                std::hint::black_box(plan);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    })
}

/// The 1/2/4-thread cold-plan section for the summary: per-point medians,
/// speedups over the 1-thread pool, and the `contended` flag CI keys its
/// scaling gate on (threads beyond the available cores measure scheduler
/// noise, not the pool).
fn pool_section() -> serde_json::Value {
    let sys = setup::small_system("vgg16bn", ClusterSpec::cluster_a(2, 2), 1);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let samples = if smoke() { 3 } else { 9 };
    let points: Vec<(usize, f64)> =
        [1usize, 2, 4].iter().map(|&t| (t, cold_allocate_us(&sys, t, samples))).collect();
    let us_at = |threads: usize| {
        points.iter().find(|(t, _)| *t == threads).map(|&(_, us)| us).unwrap_or(f64::NAN)
    };
    for &(threads, us) in &points {
        eprintln!(
            "cold_allocate/{threads}t: {us:.0} us (contended: {})",
            threads > cores
        );
    }
    serde_json::json!({
        "available_cores": cores,
        "samples": samples,
        "cold_allocate_us": {
            "threads_1": us_at(1),
            "threads_2": us_at(2),
            "threads_4": us_at(4),
        },
        "speedup_2_over_1": us_at(1) / us_at(2),
        "speedup_4_over_1": us_at(1) / us_at(4),
        "points": points.iter().map(|&(threads, us)| serde_json::json!({
            "threads": threads,
            "us": us,
            "contended": threads > cores,
        })).collect::<Vec<_>>(),
    })
}

fn write_summary(criterion: &Criterion) {
    let full = mean_ns(criterion, "candidate_eval_full");
    let incremental = mean_ns(criterion, "candidate_eval_incremental");
    let allocate = mean_ns(criterion, "allocate/vgg16bn");
    let reference = mean_ns(criterion, "allocate_reference/vgg16bn");
    let summary = serde_json::json!({
        "bench": "allocator",
        "model": "vgg16bn (reduced scale)",
        "cluster": "a:2,2",
        "smoke": smoke(),
        "candidate_eval_full_us": full / 1e3,
        "candidate_eval_incremental_us": incremental / 1e3,
        "candidate_eval_speedup": full / incremental,
        "allocate_us": allocate / 1e3,
        "allocate_reference_us": reference / 1e3,
        "allocate_speedup": reference / allocate,
        // Cold allocation with the compute pool pinned to 1/2/4 threads:
        // the brute-force initial pass fans its combination scan out to the
        // pool, so an uncontended multi-thread point must not lose to the
        // 1-thread pool (CI gates on `speedup_2_over_1` unless contended).
        "pool": pool_section(),
    });
    let text = serde_json::to_string_pretty(&summary).expect("summary serializes");
    println!("{text}");
    let path = qsync_bench::workspace_root_path("BENCH_allocator.json");
    std::fs::write(&path, text).expect("write BENCH_allocator.json");
    eprintln!("wrote {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_allocator(&mut criterion);
    write_summary(&criterion);
}
