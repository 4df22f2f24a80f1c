//! Table III bench: the replayer's prediction latency (cost mapper + global-DFG
//! simulation) for BERT-scale mixed-precision configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsync_bench::experiments::setup;
use qsync_cluster::topology::ClusterSpec;
use qsync_core::plan::PrecisionPlan;
use qsync_lp_kernels::precision::Precision;

fn bench_replayer(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_replayer");
    group.sample_size(10);
    let system = setup::small_system("bert", ClusterSpec::cluster_a(2, 2), 1);
    for p in [Precision::Fp16, Precision::Int8] {
        let plan = PrecisionPlan::uniform(system.dag(), &system.cluster, p);
        group.bench_with_input(BenchmarkId::new("predict", p.to_string()), &plan, |b, plan| {
            b.iter(|| system.predict_iteration_us(std::hint::black_box(plan)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replayer);
criterion_main!(benches);
