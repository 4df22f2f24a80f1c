//! The engine's store of shared system parts: profile once, plan many.
//!
//! A [`QSyncSystem`] is assembled from parts that depend on different things
//! (see [`qsync_core::system`]), and the store keys each part on exactly what
//! it depends on:
//!
//! * a [`ModelContext`] on `(model fingerprint, statistics seed, bucket
//!   count)` — nothing about the cluster;
//! * a device's [`ProfileDb`] on `(model fingerprint, device id, GPU model,
//!   compute-fraction bits, profile seed)` — *not* the memory fraction, not
//!   the other devices.
//!
//! So a fresh memory limit re-profiles nothing, and an elasticity step that
//! degrades one rank re-profiles that rank only. Everything else a system
//! holds (casting calculators, the communication model) is cheap and rebuilt
//! per assembly.
//!
//! The store is bounded in **bytes** ([`PARTS_STORE_BYTES`]); an insert that
//! would cross the bound first clears the model contexts and, if that is not
//! enough, the tables. Parts are pure functions of their keys, so a clear —
//! like a concurrent double build — only costs the rebuild: the assembled
//! system is indistinguishable from [`QSyncSystem::new`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use qsync_api::PlanRequest;
use qsync_cluster::device::{Device, GpuModel};
use qsync_cluster::profiler::ProfileDb;
use qsync_core::context::ModelContext;
use qsync_core::system::QSyncSystem;

use crate::metrics::ServeObs;

/// Bound on the bytes of resident parts, by the parts' own estimates
/// ([`ModelContext::approx_bytes`], [`ProfileDb::heap_bytes`]). The profile
/// tables of the benchmark's whole 224-spec zoo on a four-device cluster are
/// 4.1 MiB and its model contexts 8.7 MiB: the bound keeps every table
/// resident with room for the tables an elastic run adds, and lets contexts
/// use the rest.
pub(crate) const PARTS_STORE_BYTES: usize = 8 << 20;

type ModelKey = (u128, u64, usize);
type TableKey = (u128, usize, GpuModel, u64, u64);

#[derive(Default)]
struct Parts {
    models: HashMap<ModelKey, Arc<ModelContext>>,
    tables: HashMap<TableKey, Arc<ProfileDb>>,
    model_bytes: usize,
    table_bytes: usize,
}

impl Parts {
    fn bytes(&self) -> usize {
        self.model_bytes + self.table_bytes
    }

    /// Make room for a part of `incoming` bytes. On overflow the model
    /// contexts go first — per byte they are five times cheaper to rebuild
    /// than profile tables (bert: 166 µs for 80 KB against 438 µs for 38 KB)
    /// — and the tables only if that is not enough. `false`: the part alone
    /// is over the bound and must not be stored.
    fn make_room(&mut self, incoming: usize) -> bool {
        if incoming > PARTS_STORE_BYTES {
            return false;
        }
        if self.bytes() + incoming > PARTS_STORE_BYTES {
            self.models.clear();
            self.model_bytes = 0;
        }
        if self.bytes() + incoming > PARTS_STORE_BYTES {
            self.tables.clear();
            self.table_bytes = 0;
        }
        true
    }
}

/// The byte-bounded store of model contexts and per-device profile tables.
#[derive(Default)]
pub(crate) struct PartsStore(Mutex<Parts>);

impl std::fmt::Debug for PartsStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (entries, bytes) = self.usage();
        write!(f, "PartsStore({entries} entries, {bytes} bytes)")
    }
}

fn table_key(model_fp: u128, device: &Device, profile_seed: u64) -> TableKey {
    (model_fp, device.id, device.model, device.share.compute_fraction().to_bits(), profile_seed)
}

impl PartsStore {
    /// `(resident parts, their bytes)`.
    pub(crate) fn usage(&self) -> (usize, usize) {
        let parts = self.0.lock().expect("parts store poisoned");
        (parts.models.len() + parts.tables.len(), parts.bytes())
    }

    /// The system for a request, assembled from resident parts where there
    /// are any and from freshly built (then stored) ones where not. Builds
    /// run outside the lock: concurrent misses on one key may build twice,
    /// the builds are identical, and the first insert is the one kept.
    pub(crate) fn system_for(&self, request: &PlanRequest, obs: &ServeObs) -> QSyncSystem {
        let config = request.config();
        let cluster = request.effective_cluster();
        let model_fp = request.model.fingerprint();
        let model_key = (model_fp, config.seed, config.n_buckets);
        let (model, mut tables) = {
            let parts = self.0.lock().expect("parts store poisoned");
            let tables: Vec<Option<Arc<ProfileDb>>> = cluster
                .devices
                .iter()
                .map(|d| parts.tables.get(&table_key(model_fp, d, config.profile_seed)).cloned())
                .collect();
            (parts.models.get(&model_key).cloned(), tables)
        };

        let model = match model {
            Some(model) => {
                obs.model_ctx_memo_hits.inc();
                model
            }
            None => {
                obs.model_ctx_memo_misses.inc();
                let built = Arc::new(ModelContext::new(
                    request.model.build(),
                    config.n_buckets,
                    config.seed,
                ));
                let bytes = built.approx_bytes();
                let mut parts = self.0.lock().expect("parts store poisoned");
                if let Some(raced) = parts.models.get(&model_key) {
                    Arc::clone(raced)
                } else {
                    if parts.make_room(bytes) {
                        parts.model_bytes += bytes;
                        parts.models.insert(model_key, Arc::clone(&built));
                    }
                    built
                }
            }
        };
        for (device, slot) in cluster.devices.iter().zip(&mut tables) {
            if slot.is_some() {
                obs.profile_memo_hits.inc();
                continue;
            }
            obs.profile_memo_misses.inc();
            let built =
                Arc::new(QSyncSystem::profile_device(model.dag(), device, config.profile_seed));
            let key = table_key(model_fp, device, config.profile_seed);
            let bytes = built.heap_bytes();
            let mut parts = self.0.lock().expect("parts store poisoned");
            *slot = Some(if let Some(raced) = parts.tables.get(&key) {
                Arc::clone(raced)
            } else {
                if parts.make_room(bytes) {
                    parts.table_bytes += bytes;
                    parts.tables.insert(key, Arc::clone(&built));
                }
                built
            });
        }
        let tables = tables.into_iter().map(|t| t.expect("every slot filled above")).collect();
        QSyncSystem::from_parts(model, tables, cluster, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_api::{ClusterDelta, ModelSpec};
    use qsync_cluster::topology::ClusterSpec;
    use qsync_core::allocator::{AllocationReport, Allocator};
    use qsync_core::plan::PrecisionPlan;
    use qsync_graph::PrecisionDag;

    /// The smallest variant of each of the benchmark zoo's seven families.
    fn zoo_families() -> Vec<ModelSpec> {
        vec![
            ModelSpec::SmallMlp { batch: 1, in_features: 16, hidden: 32, classes: 8 },
            ModelSpec::SmallCnn { batch: 1, image: 8, classes: 10 },
            ModelSpec::Resnet50 { batch: 1, image: 32 },
            ModelSpec::Vgg16 { batch: 1, image: 32 },
            ModelSpec::Vgg16Bn { batch: 1, image: 32 },
            ModelSpec::BertBase { batch: 1, seq: 8 },
            ModelSpec::RobertaBase { batch: 1, seq: 8 },
        ]
    }

    /// `cluster_a(2,2)`, three memory fractions of `cluster_b(2,2,m)`, and a
    /// four-step `Degraded` chain as the benchmark's churn stream builds it.
    fn shapes() -> Vec<ClusterSpec> {
        let mut shapes = vec![ClusterSpec::cluster_a(2, 2)];
        shapes.extend([0.25, 0.5, 0.8].map(|m| ClusterSpec::cluster_b(2, 2, m)));
        let memory = 0.6;
        let mut current = ClusterSpec::cluster_b(2, 2, memory);
        let rank = current.inference_ranks()[0];
        for step in 1..=4 {
            let delta = ClusterDelta::Degraded {
                rank,
                memory_fraction: memory * (1.0 - 0.1 * step as f64),
                compute_fraction: 1.0 - 0.05 * step as f64,
            };
            current = delta.apply(&current).expect("generated delta is in range");
            shapes.push(current.clone());
        }
        shapes
    }

    fn fresh(request: &PlanRequest) -> QSyncSystem {
        QSyncSystem::new(request.model.build(), request.effective_cluster(), request.config())
    }

    type Outcome = (String, [u64; 3], [usize; 5]);

    fn outcome(system: &QSyncSystem, plan: &PrecisionPlan, report: &AllocationReport) -> Outcome {
        (
            plan.to_json(),
            [report.t_min_us, report.final_us, system.predict_iteration_us(plan)]
                .map(f64::to_bits),
            [
                report.promotions_accepted,
                report.promotions_rejected,
                report.warm_demotions,
                report.candidates_evaluated,
                report.full_predicts,
            ],
        )
    }

    /// Cold allocation, then a warm re-plan from `warm` (when given): every
    /// observable of both, bit for bit.
    fn plan_both_ways(system: &QSyncSystem, warm: Option<&PrecisionDag>) -> Vec<Outcome> {
        let allocator = Allocator::new(system);
        let indicator = system.indicator();
        let (plan, report) = allocator.allocate(&indicator);
        let mut outcomes = vec![outcome(system, &plan, &report)];
        if let Some(warm) = warm {
            let (plan, report) = allocator.plan(&indicator, Some(warm), None).into();
            outcomes.push(outcome(system, &plan, &report));
        }
        outcomes
    }

    #[test]
    fn assembled_systems_equal_fresh_ones_bitwise_cold_and_warm() {
        let (store, obs) = (PartsStore::default(), ServeObs::default());
        for model in zoo_families() {
            // Each shape warm-starts from the previous shape's fresh cold plan.
            let mut warm: Option<PrecisionDag> = None;
            for (i, cluster) in shapes().into_iter().enumerate() {
                let request = PlanRequest::new(i as u64, model.clone(), cluster);
                let reference = fresh(&request);
                let expected = plan_both_ways(&reference, warm.as_ref());
                // First sight of the shape (some parts built), then again
                // with every part resident.
                for _ in 0..2 {
                    let assembled = store.system_for(&request, &obs);
                    assert_eq!(
                        plan_both_ways(&assembled, warm.as_ref()),
                        expected,
                        "{:?} on {}",
                        request.model,
                        request.cluster.name
                    );
                }
                let rank = reference.cluster.inference_ranks()[0];
                let (plan, _) = Allocator::new(&reference).allocate(&reference.indicator());
                warm = Some(plan.device(rank).clone());
            }
        }
        // 7 contexts built once each; per model the 8 shapes need 4 base
        // tables plus one per degraded step.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("qsync_engine_model_ctx_memo_misses_total"), Some(7));
        assert_eq!(snap.counter("qsync_engine_profile_memo_misses_total"), Some(7 * 8));
        assert_eq!(snap.counter("qsync_engine_profile_memo_hits_total"), Some(7 * (16 * 4 - 8)));
    }

    #[test]
    fn store_stays_under_its_bound_and_a_clear_is_value_transparent() {
        let (store, obs) = (PartsStore::default(), ServeObs::default());
        // 300 distinct (model, compute fraction) keys, ~15 MiB of parts.
        let models: Vec<ModelSpec> = (1..=10)
            .flat_map(|batch| {
                (1..=5).flat_map(move |k| {
                    [
                        ModelSpec::BertBase { batch, seq: 8 * k },
                        ModelSpec::RobertaBase { batch, seq: 8 * k },
                    ]
                })
            })
            .collect();
        let request_for = |i: usize| {
            let compute = 1.0 - 0.1 * (i / models.len()) as f64;
            let mut cluster = ClusterSpec::cluster_b(2, 2, 0.5);
            for device in cluster.devices.iter_mut().filter(|d| d.is_inference()) {
                *device = Device::partial(device.id, device.model, 0.5, compute);
            }
            PlanRequest::new(i as u64, models[i % models.len()].clone(), cluster)
        };
        let first = request_for(0);
        let before = plan_both_ways(&store.system_for(&first, &obs), None);
        let (mut peak, mut clears) = (0, 0);
        let mut resident = store.usage().0;
        for i in 1..300 {
            store.system_for(&request_for(i), &obs);
            let (entries, bytes) = store.usage();
            assert!(bytes <= PARTS_STORE_BYTES, "key {i}: {bytes} bytes resident");
            peak = peak.max(bytes);
            clears += usize::from(entries < resident);
            resident = entries;
        }
        assert!(peak > PARTS_STORE_BYTES / 2, "the stream filled the store ({peak} bytes)");
        assert!(clears >= 2, "the stream overflowed the store ({clears} clears)");
        // Whatever of the first key's parts survived, the system built now
        // plans what it planned on the empty store, and what a fresh one does.
        let after = plan_both_ways(&store.system_for(&first, &obs), None);
        assert_eq!(after, before);
        assert_eq!(after, plan_both_ways(&fresh(&first), None));
    }

    #[test]
    fn concurrent_builds_of_one_key_agree_and_are_charged_once() {
        let request = PlanRequest::new(
            1,
            ModelSpec::BertBase { batch: 1, seq: 8 },
            ClusterSpec::cluster_b(2, 2, 0.4),
        );
        let alone = PartsStore::default();
        alone.system_for(&request, &ServeObs::default());

        let (store, obs) = (PartsStore::default(), ServeObs::default());
        let barrier = std::sync::Barrier::new(2);
        let outcomes: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        plan_both_ways(&store.system_for(&request, &obs), None)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("planner thread")).collect()
        });
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], plan_both_ways(&fresh(&request), None));
        // One context and four tables resident, charged once however the
        // two builds interleaved.
        assert_eq!(store.usage(), alone.usage());
        assert_eq!(store.usage().0, 5);
    }
}
