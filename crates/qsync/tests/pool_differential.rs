//! Pool-size differential suite. What rides the qsync-pool — the gemm/quant
//! kernels, through `qsync_pool::for_each_chunk_mut` — must be
//! **byte-identical at every pool size**: 1, 2, 4 and 8 threads. What does
//! not ride it — planning — must never reach it, and so plans identically
//! under any installed pool.
//!
//! The contract under test (see `qsync_pool::chunk_plan`): the chunk layout
//! is a function of input length only, chunks are processed with the
//! sequential code, and partials combine in chunk order.
//!
//! Pool size 1 always runs; larger sizes run when the host has ≥ 2 cores
//! (an oversubscribed pool is still correct, but on a single-core runner
//! the larger sizes only re-test the inline path under timing noise).

use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::{Allocator, InitialPassReport, InitialSetting};
use qsync_core::system::{QSyncConfig, QSyncSystem};
use qsync_graph::models::{small_cnn, small_mlp, vgg16bn};
use qsync_lp_kernels::gemm::{gemm_f16, gemm_f32, gemm_i8, TileConfig};
use qsync_lp_kernels::precision::Precision;
use qsync_lp_kernels::quant::dequantize_i32_accumulator;
use qsync_lp_kernels::quant::minmax::{minmax_optimized, minmax_per_channel};
use qsync_pool::Pool;

/// The pool sizes the acceptance criteria name. Size 1 is the baseline.
fn comparison_sizes() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores >= 2 {
        vec![2, 4, 8]
    } else {
        Vec::new()
    }
}

/// Run `f` with the current pool pinned to `threads` workers.
fn at_pool_size<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    Pool::with_threads(threads).install(f)
}

fn initial_at(
    sys: &QSyncSystem,
    threads: usize,
    budget: Option<u64>,
) -> (InitialSetting, InitialPassReport) {
    at_pool_size(threads, || {
        Allocator::new(sys).plan(&sys.indicator(), None, None, budget).initial.expect("phase 1 ran")
    })
}

fn assert_identical_settings(
    (a_setting, a_report): &(InitialSetting, InitialPassReport),
    (b_setting, b_report): &(InitialSetting, InitialPassReport),
    context: &str,
) {
    assert_eq!(a_setting.pdag, b_setting.pdag, "precision DAGs diverge: {context}");
    assert_eq!(
        a_setting.t_min_us.to_bits(),
        b_setting.t_min_us.to_bits(),
        "t_min bits diverge: {context}"
    );
    assert_eq!(a_report, b_report, "pass reports diverge: {context}");
}

#[test]
fn cold_initial_setting_is_byte_identical_across_pool_sizes() {
    for (name, dag) in [
        ("small_mlp", small_mlp(64, 512, 1024, 16)),
        ("small_cnn", small_cnn(4, 16, 8)),
        ("vgg16bn", vgg16bn(2, 32)),
    ] {
        let sys = QSyncSystem::new(dag, ClusterSpec::hybrid_small(), QSyncConfig::default());
        let baseline = initial_at(&sys, 1, None);
        assert!(baseline.1.evals > 0, "{name}: the brute force must score combinations");
        for threads in comparison_sizes() {
            let got = initial_at(&sys, threads, None);
            assert_identical_settings(&baseline, &got, &format!("{name} at {threads} threads"));
        }
    }
}

#[test]
fn budget_preempted_checkpoints_are_byte_identical_across_pool_sizes() {
    let sys = QSyncSystem::new(
        vgg16bn(2, 32),
        ClusterSpec::hybrid_small(),
        QSyncConfig::default(),
    );
    let unbounded = initial_at(&sys, 1, None).1.evals;
    assert!(unbounded > 8, "budget sweep needs a non-trivial eval count, got {unbounded}");
    // Budgets straddling every regime: zero, mid-pass preemption (where the
    // checkpointed best-so-far matters), exactly-exhausted, unbounded.
    for budget in [0, 1, 2, 7, unbounded / 2, unbounded - 1, unbounded, unbounded + 1] {
        let baseline = initial_at(&sys, 1, Some(budget));
        assert_eq!(
            baseline.1.preempted,
            budget < unbounded,
            "budget {budget} of {unbounded}: preemption flag"
        );
        assert_eq!(baseline.1.evals, budget.min(unbounded), "budget {budget}: evals spent");
        for threads in comparison_sizes() {
            let got = initial_at(&sys, threads, Some(budget));
            assert_identical_settings(
                &baseline,
                &got,
                &format!("budget {budget} at {threads} threads"),
            );
        }
    }
}

#[test]
fn full_allocation_and_warm_replan_are_byte_identical_across_pool_sizes() {
    let dag = small_mlp(64, 512, 1024, 16);
    let roomy = QSyncSystem::new(dag.clone(), ClusterSpec::cluster_a(1, 1), QSyncConfig::default());
    let cold = |threads: usize| {
        at_pool_size(threads, || {
            let (plan, report) = Allocator::new(&roomy).allocate(&roomy.indicator());
            (plan.to_json(), report.t_min_us.to_bits(), report.promotions_accepted)
        })
    };
    let cold_baseline = cold(1);

    // Warm re-plan against a shrunk cluster, the serve elasticity path.
    let shrunk =
        QSyncSystem::new(dag.clone(), ClusterSpec::cluster_b(1, 1, 0.3), QSyncConfig::default());
    let cached = at_pool_size(1, || Allocator::new(&roomy).allocate(&roomy.indicator()).0);
    let warm_dag = cached.device(roomy.cluster.inference_ranks()[0]).clone();
    let t_min = initial_at(&shrunk, 1, None).0.t_min_us;
    let warm = |threads: usize| {
        at_pool_size(threads, || {
            let (plan, report) =
                Allocator::new(&shrunk).allocate_warm_with_tmin(&shrunk.indicator(), &warm_dag, t_min);
            (plan.to_json(), report.warm_demotions, report.final_us.to_bits())
        })
    };
    let warm_baseline = warm(1);

    for threads in comparison_sizes() {
        assert_eq!(cold(threads), cold_baseline, "cold plan diverges at {threads} threads");
        assert_eq!(warm(threads), warm_baseline, "warm re-plan diverges at {threads} threads");
    }
}

/// The allocator scores every brute-force combination from one evaluator's
/// cost tables, on the calling thread: a cold plan, a budget-preempted
/// initial pass and a warm re-plan run no pool job and spawn no worker, even
/// with a 2-thread pool installed — so a plan server's planner workers are
/// its only plan-level parallelism.
#[test]
fn planning_never_touches_the_compute_pool() {
    // Systems and the warm re-plan's `T_min` are built outside the pool:
    // only the three allocator entry points are under test.
    let sys = QSyncSystem::new(vgg16bn(2, 32), ClusterSpec::hybrid_small(), QSyncConfig::default());
    let shrunk =
        QSyncSystem::new(vgg16bn(2, 32), ClusterSpec::cluster_b(1, 1, 0.3), QSyncConfig::default());
    let rank = sys.cluster.inference_ranks()[0];
    let shrunk_rank = shrunk.cluster.inference_ranks()[0];
    let t_min = Allocator::new(&shrunk).initial_setting(shrunk_rank).t_min_us;

    let pool = Pool::with_threads(2);
    pool.install(|| {
        let (plan, _) = Allocator::new(&sys).allocate(&sys.indicator());
        let (_, pass) =
            Allocator::new(&sys).plan(&sys.indicator(), None, None, Some(7)).initial.expect("phase 1 ran");
        assert!(pass.preempted, "a budget of 7 preempts vgg16bn's initial pass");
        Allocator::new(&shrunk).allocate_warm_with_tmin(&shrunk.indicator(), plan.device(rank), t_min);
    });
    let stats = pool.stats();
    assert!(
        stats.jobs == 0 && !stats.spawned,
        "planning reached the compute pool: {} jobs, spawned {}",
        stats.jobs,
        stats.spawned
    );
}

#[test]
fn gemm_and_quant_kernels_are_byte_identical_across_pool_sizes() {
    // Inputs big enough to split into many chunks (the elementwise floor is
    // 1024), and 100 rows so the last 32-row tile is short.
    let (m, k, n) = (100, 64, 80);
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.017).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.023).collect();
    let a8: Vec<i8> = (0..m * k).map(|i| (i * 37 % 255) as u8 as i8).collect();
    let b8: Vec<i8> = (0..k * n).map(|i| (i * 53 % 251) as u8 as i8).collect();
    let acc: Vec<i32> = (0..m * n).map(|i| (i as i32 * 7919) % 100_003 - 50_000).collect();
    let scales: Vec<f32> = (0..n).map(|j| 1e-3 + j as f32 * 7e-5).collect();
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01 - 0.4).collect();
    let data: Vec<f32> = (0..64 * 1024).map(|i| ((i * 97 % 8191) as f32 - 4096.0) * 1e-3).collect();
    let tile = TileConfig::fallback();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

    let run = || {
        let (lo, hi) = minmax_optimized(&data, 256);
        let channels: Vec<u32> =
            minmax_per_channel(&data, 64).iter().flat_map(|(a, b)| [a.to_bits(), b.to_bits()]).collect();
        [
            bits(&gemm_f32(&a, &b, m, k, n, &tile)),
            bits(&gemm_f16(&a, &b, m, k, n, &tile, Precision::Fp32)),
            bits(&gemm_f16(&a, &b, m, k, n, &tile, Precision::Fp16)),
            bits(&gemm_i8(&a8, &b8, m, k, n, 0.02, &scales, Some(&bias), &tile)),
            bits(&dequantize_i32_accumulator(&acc, m, n, 0.03, &scales, Some(&bias))),
            bits(&dequantize_i32_accumulator(&acc, m, n, 0.03, &scales[..1], None)),
            vec![lo.to_bits(), hi.to_bits()],
            channels,
        ]
    };
    let baseline = at_pool_size(1, run);
    for threads in comparison_sizes() {
        assert_eq!(at_pool_size(threads, run), baseline, "kernels diverge at {threads} threads");
    }
}

/// The pool must pay for itself where it runs: on a host with at least two
/// cores, a 2-thread pool may not lose to the 1-thread pool on a 384×256×384
/// f32 gemm. Medians of 9 runs per pool. Timing-sensitive, so ignored by
/// default and run in release on its own: `cargo test --release -p
/// qsync-core --test pool_differential -- --ignored --test-threads=1`.
#[test]
#[ignore = "release-mode timing gate; run explicitly — see ci.yml"]
fn two_pool_threads_do_not_lose_to_one() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        eprintln!("contended runner ({cores} core): skipping the pool scaling gate");
        return;
    }
    let (m, k, n) = (384, 256, 384);
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.017).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.023).collect();
    let tile = TileConfig::fallback();
    let gemm = || {
        std::hint::black_box(gemm_f32(&a, &b, m, k, n, &tile));
    };

    // Runs alternate between the pools so load drift hits both; one
    // untimed run each first spawns the lazy workers.
    let pools = [Pool::with_threads(1), Pool::with_threads(2)];
    for pool in &pools {
        pool.install(gemm);
    }
    let mut runs = [Vec::new(), Vec::new()];
    for _ in 0..9 {
        for (pool, runs) in pools.iter().zip(&mut runs) {
            let start = std::time::Instant::now();
            pool.install(gemm);
            runs.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let [one, two] = runs.map(|mut runs| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    });
    eprintln!("gemm_f32 384x256x384: {one:.0} us at 1 thread, {two:.0} us at 2 threads");
    assert!(two <= one, "gemm_f32: the 2-thread pool ({two:.0} us) lost to 1 thread ({one:.0} us)");
}
