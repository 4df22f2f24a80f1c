//! Fine-tuning BERT on the memory-constrained ClusterB: shows how the allocator reacts
//! when only 30 % of the T4 memory is loaned to the training job (partial sharing).
//!
//! ```text
//! cargo run --release --example memory_constrained_bert
//! ```

use qsync_bench::experiments::setup;
use qsync_core::allocator::Allocator;
use qsync_core::baselines::uniform_precision_plan;
use qsync_lp_kernels::precision::Precision;

fn main() {
    // BERT's footprint (~3.3 GiB) still fits the paper's 30% slice of a T4, so to surface
    // the memory-pressure behaviour this example also shows an 18% slice (heavier MPS
    // sharing), where full FP16 no longer fits and INT8 operators become mandatory.
    let constrained = qsync_cluster::topology::ClusterSpec::cluster_b(setup::N_V100, setup::N_T4, 0.18);
    for (label, cluster) in [
        ("ClusterA (full T4 memory)", setup::cluster_a()),
        ("heavily shared T4s (18% memory)", constrained),
    ] {
        let system = setup::system("bert", cluster, 2024);
        let t4 = system.cluster.inference_ranks()[0];
        let cap_gib = system.cluster.devices[t4].available_memory_bytes() as f64 / (1u64 << 30) as f64;

        let up = uniform_precision_plan(&system);
        let (plan, _) = Allocator::new(&system).allocate(&system.indicator());
        let mem = |p: &qsync_core::plan::PrecisionPlan| {
            system.memory_bytes(t4, p.device(t4)) as f64 / (1u64 << 30) as f64
        };

        println!("== {label} — T4 has {cap_gib:.1} GiB available ==");
        println!(
            "  UP    : {:<40} memory {:.1} GiB, throughput {:.3} it/s",
            up.summary(system.dag(), t4),
            mem(&up),
            system.predict(&up).iterations_per_second()
        );
        println!(
            "  QSync : {:<40} memory {:.1} GiB, throughput {:.3} it/s",
            plan.summary(system.dag(), t4),
            mem(&plan),
            system.predict(&plan).iterations_per_second()
        );
        let int8 = plan.count_adjustable_at(system.dag(), t4, Precision::Int8);
        let fp32 = plan.count_adjustable_at(system.dag(), t4, Precision::Fp32);
        println!(
            "  QSync keeps {int8} operators at INT8 and recovers {fp32} to FP32; accuracy estimate {:.2}%\n",
            system.accuracy(&plan, 0).unwrap().mean
        );
    }
}
