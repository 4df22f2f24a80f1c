//! From-scratch ResNet-50 on the paper's ClusterA: ORACLE / DBS / UP / QSync side by side
//! (a single row of Table IV), plus the precision plan QSync chose.
//!
//! ```text
//! cargo run --release --example hybrid_resnet_plan
//! ```

use qsync_bench::experiments::setup;
use qsync_core::allocator::Allocator;
use qsync_core::baselines::{dbs_accuracy, dynamic_batch_sizing, oracle_accuracy, uniform_precision_plan};
use qsync_lp_kernels::precision::Precision;

fn main() {
    let system = setup::system("resnet50", setup::cluster_a(), 2024);
    println!("ResNet-50, local batch {}, {}", system.dag().batch_size, system.cluster.name);

    let oracle = oracle_accuracy(&system, 0).unwrap();
    println!("\nORACLE : accuracy {:.2} ± {:.2}%   throughput †", oracle.mean, oracle.std);

    let dbs = dynamic_batch_sizing(&system);
    let dbs_acc = dbs_accuracy(&system, 0).unwrap();
    println!(
        "DBS    : accuracy {:.2} ± {:.2}%   throughput {:.3} it/s   batch split V100={} T4={}",
        dbs_acc.mean,
        dbs_acc.std,
        dbs.iterations_per_second,
        dbs.batch_allocation[system.cluster.training_ranks()[0]],
        dbs.batch_allocation[system.cluster.inference_ranks()[0]],
    );

    let up = uniform_precision_plan(&system);
    let up_acc = system.accuracy(&up, 1).unwrap();
    println!(
        "UP     : accuracy {:.2} ± {:.2}%   throughput {:.3} it/s   ({})",
        up_acc.mean,
        up_acc.std,
        system.predict(&up).iterations_per_second(),
        up.summary(system.dag(), system.cluster.inference_ranks()[0]),
    );

    let (plan, _) = Allocator::new(&system).allocate(&system.indicator());
    let qs_acc = system.accuracy(&plan, 2).unwrap();
    println!(
        "QSync  : accuracy {:.2} ± {:.2}%   throughput {:.3} it/s   ({})",
        qs_acc.mean,
        qs_acc.std,
        system.predict(&plan).iterations_per_second(),
        plan.summary(system.dag(), system.cluster.inference_ranks()[0]),
    );

    // Which convolutions did QSync keep at low precision?
    let t4 = system.cluster.inference_ranks()[0];
    let pdag = plan.device(t4);
    let low: Vec<&str> = system
        .dag()
        .nodes()
        .iter()
        .filter(|n| {
            n.kind.is_compute_intensive() && pdag.get(n.id) != Precision::Fp32
        })
        .map(|n| n.name.as_str())
        .take(12)
        .collect();
    println!("\nfirst low-precision operators kept on the T4s: {low:?}");
}
