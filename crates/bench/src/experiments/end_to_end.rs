//! Tables IV / V / VI — end-to-end final accuracy and training throughput of ORACLE,
//! dynamic batch sizing (DBS), uniform precision (UP) and QSync.

use std::fmt;

use qsync_core::allocator::Allocator;
use qsync_core::baselines::{dbs_accuracy, dynamic_batch_sizing, oracle_accuracy, uniform_precision_plan};
use qsync_core::system::QSyncSystem;
use qsync_train::accuracy::AccuracyOutcome;

use super::setup;

/// Which cluster a table targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Testbed {
    /// ClusterA (full-memory T4s).
    ClusterA,
    /// ClusterB (T4 memory limited to 30 %).
    ClusterB,
}

/// One method row for one model.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method name (ORACLE / DBS / UP / QSync).
    pub method: String,
    /// Final accuracy (None for methods where the paper reports none).
    pub accuracy: Option<AccuracyOutcome>,
    /// Training throughput in iterations per second (None for ORACLE, marked † in the paper).
    pub throughput_it_s: Option<f64>,
}

/// All rows for one model.
#[derive(Debug, Clone)]
pub struct ModelBlock {
    /// Model name.
    pub model: String,
    /// ORACLE / DBS / UP / QSync rows, in that order.
    pub rows: Vec<MethodRow>,
}

/// One full table (IV, V or VI).
#[derive(Debug, Clone)]
pub struct EndToEndTable {
    /// Table title.
    pub title: String,
    /// One block per model.
    pub blocks: Vec<ModelBlock>,
}

fn evaluate_model(system: &QSyncSystem, tag: u64) -> ModelBlock {
    let mut rows = Vec::new();
    // ORACLE: non-quantized accuracy, no throughput reported.
    rows.push(MethodRow {
        method: "ORACLE".into(),
        accuracy: oracle_accuracy(system, tag),
        throughput_it_s: None,
    });
    // DBS.
    let dbs = dynamic_batch_sizing(system);
    rows.push(MethodRow {
        method: "DBS".into(),
        accuracy: dbs_accuracy(system, tag),
        throughput_it_s: Some(dbs.iterations_per_second),
    });
    // UP.
    let up = uniform_precision_plan(system);
    rows.push(MethodRow {
        method: "UP".into(),
        accuracy: system.accuracy(&up, tag.wrapping_add(1)),
        throughput_it_s: Some(system.predict(&up).iterations_per_second()),
    });
    // QSync.
    let (plan, _) = Allocator::new(system).allocate(&system.indicator());
    rows.push(MethodRow {
        method: "QSync".into(),
        accuracy: system.accuracy(&plan, tag.wrapping_add(2)),
        throughput_it_s: Some(system.predict(&plan).iterations_per_second()),
    });
    ModelBlock { model: system.dag().name.clone(), rows }
}

/// Regenerate one of the end-to-end tables.
///
/// * Table IV: `testbed = ClusterA`, `models = ["resnet50", "vgg16", "vgg16bn"]`
/// * Table V:  `testbed = ClusterB`, `models = ["resnet50", "vgg16bn"]`
/// * Table VI: `testbed = ClusterA`, `models = ["bert", "roberta"]`
pub fn end_to_end_table(title: &str, testbed: Testbed, models: &[&str], seed: u64) -> EndToEndTable {
    let blocks = models
        .iter()
        .enumerate()
        .map(|(i, model)| {
            let cluster = match testbed {
                Testbed::ClusterA => setup::cluster_a(),
                Testbed::ClusterB => setup::cluster_b(),
            };
            let system = setup::system(model, cluster, seed);
            evaluate_model(&system, seed.wrapping_add(i as u64 * 10))
        })
        .collect();
    EndToEndTable { title: title.to_string(), blocks }
}

impl EndToEndTable {
    /// Look up one method row of one model.
    pub fn row(&self, model: &str, method: &str) -> Option<&MethodRow> {
        self.blocks
            .iter()
            .find(|b| b.model.starts_with(model))
            .and_then(|b| b.rows.iter().find(|r| r.method == method))
    }
}

impl fmt::Display for EndToEndTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{:<10} {:<8} {:>20} {:>18}", "model", "method", "final accuracy", "throughput (it/s)")?;
        for b in &self.blocks {
            for r in &b.rows {
                let acc = r
                    .accuracy
                    .map(|a| format!("{:.2} ± {:.2}%", a.mean, a.std))
                    .unwrap_or_else(|| "-".into());
                let thr = r.throughput_it_s.map(|t| format!("{t:.3}")).unwrap_or_else(|| "†".into());
                writeln!(f, "{:<10} {:<8} {:>20} {:>18}", b.model, r.method, acc, thr)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_a_vgg16bn_reproduces_the_paper_ordering() {
        let t = end_to_end_table("Table IV (subset)", Testbed::ClusterA, &["vgg16bn"], 7);
        let oracle = t.row("vgg16bn", "ORACLE").unwrap().accuracy.unwrap().mean;
        let dbs = t.row("vgg16bn", "DBS").unwrap();
        let up = t.row("vgg16bn", "UP").unwrap();
        let qsync = t.row("vgg16bn", "QSync").unwrap();
        // Accuracy: QSync > UP and QSync > DBS; UP/DBS below ORACLE.
        assert!(qsync.accuracy.unwrap().mean > up.accuracy.unwrap().mean);
        assert!(qsync.accuracy.unwrap().mean > dbs.accuracy.unwrap().mean);
        assert!(up.accuracy.unwrap().mean < oracle);
        // Throughput: QSync matches UP (within 2%) and beats DBS by > 10%.
        let thr_q = qsync.throughput_it_s.unwrap();
        let thr_up = up.throughput_it_s.unwrap();
        let thr_dbs = dbs.throughput_it_s.unwrap();
        assert!(thr_q >= thr_up * 0.98, "QSync {thr_q} vs UP {thr_up}");
        assert!(thr_q > thr_dbs * 1.10, "QSync {thr_q} vs DBS {thr_dbs}");
    }

    #[test]
    fn fine_tuning_transformers_tolerate_dbs() {
        let t = end_to_end_table("Table VI (subset)", Testbed::ClusterA, &["bert"], 9);
        let dbs = t.row("bert", "DBS").unwrap().accuracy.unwrap().mean;
        let up = t.row("bert", "UP").unwrap().accuracy.unwrap().mean;
        let qsync = t.row("bert", "QSync").unwrap().accuracy.unwrap().mean;
        // The paper: QSync improves on UP but DBS can be slightly ahead for fine-tuning
        // (transformers tolerate batch-size changes). Allow the run-to-run noise band.
        assert!(qsync >= up - 0.05);
        assert!(dbs >= up - 0.2);
        // Throughput: quantized methods beat DBS.
        let thr_q = t.row("bert", "QSync").unwrap().throughput_it_s.unwrap();
        let thr_dbs = t.row("bert", "DBS").unwrap().throughput_it_s.unwrap();
        assert!(thr_q > thr_dbs);
    }
}
