//! Quickstart: run the full QSync pipeline on a small hybrid cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 2xV100 + 2xT4 job training a small MLP, profiles it, lets the allocator pick
//! a quantization-minimized precision plan, and compares it against the uniform-precision
//! baseline.

use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::Allocator;
use qsync_core::baselines::uniform_precision_plan;
use qsync_core::system::{QSyncConfig, QSyncSystem};
use qsync_graph::models::small_mlp;

fn main() {
    // 1) A model (per-device batch 1024, large enough that compute — not gradient
    //    synchronisation — dominates) and a hybrid cluster: 2 training + 2 inference GPUs.
    let model = small_mlp(1024, 1024, 2048, 64);
    let cluster = ClusterSpec::hybrid_small();
    println!("model: {} ({} operators, {:.1}M parameters)", model.name, model.len(), model.param_count() as f64 / 1e6);
    println!("cluster: {}\n", cluster.name);

    // 2) Assemble the system: profiling, casting models, indicator statistics.
    let system = QSyncSystem::new(model, cluster, QSyncConfig::default());

    // 3) Baseline: uniform precision on the inference GPUs.
    let up = uniform_precision_plan(&system);
    let up_sim = system.predict(&up);

    // 4) QSync: quantization-minimized allocation.
    let (plan, report) = Allocator::new(&system).allocate(&system.indicator());
    let qs_sim = system.predict(&plan);

    let t4 = system.cluster.inference_ranks()[0];
    println!("uniform precision : {}", up.summary(system.dag(), t4));
    println!("  predicted iteration: {:.2} ms ({:.3} it/s), T4 waiting {:.2} ms", up_sim.iteration_us / 1e3, up_sim.iterations_per_second(), up_sim.waiting_us(t4) / 1e3);
    println!("qsync             : {}", plan.summary(system.dag(), t4));
    println!("  predicted iteration: {:.2} ms ({:.3} it/s), T4 waiting {:.2} ms", qs_sim.iteration_us / 1e3, qs_sim.iterations_per_second(), qs_sim.waiting_us(t4) / 1e3);
    println!("  promotions accepted/rejected: {}/{}", report.promotions_accepted, report.promotions_rejected);
    println!("  gradient-variance ratio: UP {:.4} vs QSync {:.4} (lower is better)", system.variance_ratio(&up), system.variance_ratio(&plan));
    println!("  T4 memory: {:.2} GiB of {:.2} GiB available",
        system.memory_bytes(t4, plan.device(t4)) as f64 / (1u64 << 30) as f64,
        system.cluster.devices[t4].available_memory_bytes() as f64 / (1u64 << 30) as f64);

    // 5) The optimized plan can be exported and fed to the training backend.
    println!("\nplan JSON (first 200 chars): {}…", &plan.to_json()[..200]);
}
