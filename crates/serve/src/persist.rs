//! Snapshot persistence: encoding the engine's live state — plan cache and
//! initial-setting memo — to [`qsync_store`] records and merging it back.
//!
//! The record schema is deliberately drift-tolerant in both directions:
//!
//! * **Forward**: a record kind or record version this build does not know is
//!   *skipped and counted*, never an error — a snapshot written by a newer
//!   server warm-loads the entries an older server understands.
//! * **Backward**: every plan record re-derives its cache key and cluster
//!   fingerprint from its own embedded request on import
//!   ([`PlanEngine::adopt_plan`]); a record whose stored key no longer
//!   matches the request's content address (a key-schema change between
//!   builds) loads as a skip, never a poisoned cache entry.
//!
//! File integrity (magic, format version, truncation, checksum) is
//! `qsync-store`'s job and is all-or-nothing: a corrupted snapshot loads
//! **zero** records and surfaces a [`StoreError`] — the server then boots
//! cold rather than half-warm. Record-level drift is per-entry and lossy by
//! design. The same encoding feeds the `FetchSnapshot` replication reply, so
//! a replica bootstrap is bit-identical to a file load.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use qsync_api::PlanPayload;
use qsync_core::allocator::InitialSetting;
use qsync_graph::PrecisionDag;
use qsync_store::{Record, StoreError};

use crate::engine::PlanEngine;

/// Record kind for one plan-cache entry (body: [`PlanPayload`]).
pub const PLAN_KIND: &str = "plan";
/// Record kind for one memoized initial setting (body: [`MemoBody`]).
pub const MEMO_KIND: &str = "initial_memo";
/// Newest plan-record version this build writes and understands.
pub const PLAN_RECORD_VERSION: u32 = 1;
/// Newest memo-record version this build writes and understands.
pub const MEMO_RECORD_VERSION: u32 = 1;

/// Where (and how often) a server persists its plan store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Snapshot file path (`--store`). Loaded at boot if present and valid;
    /// the default target of `Snapshot`/`Load` commands.
    pub path: PathBuf,
    /// Periodic snapshot interval (`--snapshot-interval-ms`); `None` means
    /// snapshots happen only on command and at shutdown.
    pub snapshot_interval: Option<Duration>,
}

impl StoreConfig {
    /// A store at `path` with no periodic snapshots.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        StoreConfig { path: path.into(), snapshot_interval: None }
    }
}

/// What a snapshot import merged into the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Plan entries adopted into the cache.
    pub plans: u64,
    /// Initial-setting memo entries adopted.
    pub memos: u64,
    /// Records skipped: unknown kind, newer record version, malformed body,
    /// or a plan whose stored key is not its request's content address.
    pub skipped: u64,
    /// Snapshot size in bytes (as read).
    pub bytes: u64,
}

/// The body of one [`MEMO_KIND`] record. Fingerprints are hex `u128`s (the
/// vendored serde has no native `u128`); `t_min_bits` is the IEEE-754 bit
/// pattern of the memoized `T_min` so the restore is bit-exact, keeping
/// memoized plans byte-identical to freshly computed ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoBody {
    /// Model-graph fingerprint (hex u128).
    pub model_fp: String,
    /// Effective-cluster fingerprint (hex u128).
    pub cluster_fp: String,
    /// `f64::to_bits` of the memoized minimal iteration time.
    pub t_min_bits: u64,
    /// The memoized all-minimal precision assignment.
    pub pdag: PrecisionDag,
}

fn parse_fp(hex: &str) -> Option<u128> {
    u128::from_str_radix(hex, 16).ok()
}

/// The engine's plan-cache entries as store records, sorted by cache key.
/// Deterministic given the cache contents — two engines with identical
/// resident plans produce byte-identical record lists (the replica-coherence
/// check in the lab compares exactly this).
pub fn plan_records(engine: &PlanEngine) -> Vec<Record> {
    engine
        .cache()
        .entries()
        .into_iter()
        .map(|(key, entry)| Record {
            kind: PLAN_KIND.to_string(),
            version: PLAN_RECORD_VERSION,
            key,
            body: serde_json::to_value(&PlanPayload {
                request: entry.request,
                response: entry.response,
                inference_pdag: entry.inference_pdag,
            }),
        })
        .collect()
}

/// The engine's full persistent state — plan entries then memo entries, each
/// group sorted by key — ready for [`qsync_store::encode`].
pub fn export_records(engine: &PlanEngine) -> Vec<Record> {
    let mut records = plan_records(engine);
    records.extend(engine.memo_entries().into_iter().map(|((model_fp, cluster_fp), initial)| {
        Record {
            kind: MEMO_KIND.to_string(),
            version: MEMO_RECORD_VERSION,
            key: format!("{model_fp:032x}:{cluster_fp:032x}"),
            body: serde_json::to_value(&MemoBody {
                model_fp: format!("{model_fp:032x}"),
                cluster_fp: format!("{cluster_fp:032x}"),
                t_min_bits: initial.t_min_us.to_bits(),
                pdag: initial.pdag,
            }),
        }
    }));
    records
}

/// Merge verified records into the engine, skipping (and counting) anything
/// this build does not understand. Plan adoption goes through
/// [`PlanEngine::adopt_plan`], so a drifted key schema downgrades to a skip.
pub fn import_records(engine: &PlanEngine, records: Vec<Record>) -> ImportStats {
    let mut stats = ImportStats::default();
    for record in records {
        match (record.kind.as_str(), record.version) {
            (PLAN_KIND, v) if v <= PLAN_RECORD_VERSION => {
                let adopted = serde_json::from_value::<PlanPayload>(&record.body)
                    .ok()
                    .filter(|payload| payload.response.key == record.key)
                    .is_some_and(|payload| {
                        engine.adopt_plan(
                            payload.request,
                            payload.response,
                            payload.inference_pdag,
                        )
                    });
                if adopted {
                    stats.plans += 1;
                } else {
                    stats.skipped += 1;
                }
            }
            (MEMO_KIND, v) if v <= MEMO_RECORD_VERSION => {
                let parsed = serde_json::from_value::<MemoBody>(&record.body).ok().and_then(
                    |body| {
                        Some((
                            parse_fp(&body.model_fp)?,
                            parse_fp(&body.cluster_fp)?,
                            InitialSetting {
                                pdag: body.pdag,
                                t_min_us: f64::from_bits(body.t_min_bits),
                            },
                        ))
                    },
                );
                match parsed {
                    Some((model_fp, cluster_fp, initial)) => {
                        engine.memo_insert(model_fp, cluster_fp, initial);
                        stats.memos += 1;
                    }
                    None => stats.skipped += 1,
                }
            }
            // Unknown kind or a version from the future: drift, not an error.
            _ => stats.skipped += 1,
        }
    }
    stats
}

/// The engine's state as one snapshot string in the qsync-store file format —
/// what `Snapshot` writes to disk and `FetchSnapshot` sends over the wire.
/// Returns the text and its record count.
pub fn snapshot_string(engine: &PlanEngine) -> (String, u64) {
    let records = export_records(engine);
    let entries = records.len() as u64;
    (qsync_store::encode(&records), entries)
}

/// Atomically write a snapshot of the engine to `path`, recording the
/// persistence instruments. Returns `(entries, bytes)` written.
pub fn snapshot_to_path(engine: &PlanEngine, path: &Path) -> Result<(u64, u64), StoreError> {
    let started = Instant::now();
    let records = export_records(engine);
    let report = qsync_store::write_atomic(path, &records)?;
    let obs = engine.obs();
    obs.snapshot_writes.inc();
    obs.snapshot_entries.record(report.entries);
    obs.snapshot_bytes.record(report.bytes);
    obs.snapshot_write_us.record(started.elapsed().as_micros() as u64);
    Ok((report.entries, report.bytes))
}

/// Verify and merge a snapshot string (a `FetchSnapshot` reply body, or a
/// file already read to memory) into the engine.
pub fn import_string(engine: &PlanEngine, data: &str) -> Result<ImportStats, StoreError> {
    let started = Instant::now();
    let loaded = qsync_store::decode(data)?;
    let mut stats = import_records(engine, loaded.records);
    stats.skipped += loaded.skipped_malformed;
    stats.bytes = loaded.bytes;
    engine.obs().snapshot_load_us.record(started.elapsed().as_micros() as u64);
    Ok(stats)
}

/// Verify and merge a snapshot file into the engine. A file that fails
/// verification (bad magic, unsupported format version, truncation, checksum
/// mismatch, unreadable) merges **nothing**: the error is the caller's cue to
/// continue cold.
pub fn load_from_path(engine: &PlanEngine, path: &Path) -> Result<ImportStats, StoreError> {
    let started = Instant::now();
    let loaded = qsync_store::read(path)?;
    let mut stats = import_records(engine, loaded.records);
    stats.skipped += loaded.skipped_malformed;
    stats.bytes = loaded.bytes;
    engine.obs().snapshot_load_us.record(started.elapsed().as_micros() as u64);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_api::{ModelSpec, PlanOutcome, PlanRequest};
    use qsync_cluster::topology::ClusterSpec;

    fn planned_engine() -> PlanEngine {
        let engine = PlanEngine::new();
        for (id, batch) in [(1u64, 8usize), (2, 16)] {
            engine
                .plan(&PlanRequest::new(
                    id,
                    ModelSpec::SmallMlp { batch, in_features: 32, hidden: 64, classes: 8 },
                    ClusterSpec::hybrid_small(),
                ))
                .unwrap();
        }
        engine
    }

    #[test]
    fn export_import_round_trips_plans_and_memos() {
        let primary = planned_engine();
        let (text, entries) = snapshot_string(&primary);
        assert_eq!(entries, 2 + primary.memo_len() as u64);

        let replica = PlanEngine::new();
        let stats = import_string(&replica, &text).unwrap();
        assert_eq!(stats.plans, 2);
        assert_eq!(stats.memos, primary.memo_len() as u64);
        assert_eq!(stats.skipped, 0);
        // Byte-identical plan state: the replica's plan records re-encode to
        // exactly the primary's.
        assert_eq!(
            qsync_store::encode(&plan_records(&replica)),
            qsync_store::encode(&plan_records(&primary))
        );
        // And the warmed replica serves the zoo entirely from cache.
        let request = PlanRequest::new(
            9,
            ModelSpec::SmallMlp { batch: 8, in_features: 32, hidden: 64, classes: 8 },
            ClusterSpec::hybrid_small(),
        );
        assert_eq!(replica.plan(&request).unwrap().outcome, PlanOutcome::CacheHit);
        assert_eq!(replica.obs().snapshot().histogram("qsync_plan_latency_us{kind=\"cold\"}").map(|h| h.count), Some(0));
    }

    #[test]
    fn unknown_kinds_and_future_versions_are_skipped_not_fatal() {
        let primary = planned_engine();
        let mut records = export_records(&primary);
        records.push(Record {
            kind: "hologram_index".to_string(),
            version: 1,
            key: "whatever".to_string(),
            body: serde_json::to_value(&vec![1u64, 2, 3]),
        });
        records.push(Record {
            kind: PLAN_KIND.to_string(),
            version: PLAN_RECORD_VERSION + 1,
            key: "from-the-future".to_string(),
            body: serde_json::to_value(&"opaque"),
        });
        let replica = PlanEngine::new();
        let stats = import_records(&replica, records);
        assert_eq!(stats.plans, 2);
        assert_eq!(stats.skipped, 2);
        assert_eq!(replica.cache().len(), 2);
    }

    #[test]
    fn plan_record_with_drifted_key_is_skipped() {
        let primary = planned_engine();
        let mut records = plan_records(&primary);
        records[0].key = format!("{}0", records[0].key);
        let replica = PlanEngine::new();
        let stats = import_records(&replica, records);
        assert_eq!(stats.plans, 1);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn memo_restore_is_bit_exact() {
        let primary = planned_engine();
        let (text, _) = snapshot_string(&primary);
        let replica = PlanEngine::new();
        import_string(&replica, &text).unwrap();
        let a = primary.memo_entries();
        let b = replica.memo_entries();
        assert_eq!(a.len(), b.len());
        for ((ka, ia), (kb, ib)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(ia.t_min_us.to_bits(), ib.t_min_us.to_bits());
            assert_eq!(ia.pdag, ib.pdag);
        }
    }

    #[test]
    fn snapshot_file_round_trips_and_corruption_loads_nothing() {
        let primary = planned_engine();
        let dir = std::env::temp_dir().join(format!("qsync-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.qss");
        let (entries, bytes) = snapshot_to_path(&primary, &path).unwrap();
        assert!(entries >= 2 && bytes > 0);

        let replica = PlanEngine::new();
        let stats = load_from_path(&replica, &path).unwrap();
        assert_eq!(stats.plans, 2);

        // Flip one payload byte: verification fails, nothing merges.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let cold = PlanEngine::new();
        assert!(load_from_path(&cold, &path).is_err());
        assert_eq!(cold.cache().len(), 0);
        assert_eq!(cold.memo_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
