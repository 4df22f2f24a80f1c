//! Snapshot persistence: encoding the engine's plan cache to [`qsync_store`]
//! records and merging it back.
//!
//! The record schema is deliberately drift-tolerant in both directions:
//!
//! * **Forward**: a record kind or record version this build does not know is
//!   *skipped and counted*, never an error — a snapshot written by a newer
//!   server warm-loads the entries an older server understands. The
//!   `initial_memo` records older builds wrote take the same path.
//! * **Backward**: every plan record re-derives its cache key and cluster
//!   fingerprint from its own embedded request on import
//!   (`PlanEngine::adopt_plan`); a record whose stored key no longer
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

use qsync_api::PlanPayload;
use qsync_store::{Record, StoreError};

use crate::engine::PlanEngine;

/// Record kind for one plan-cache entry (body: [`PlanPayload`]).
pub(crate) const PLAN_KIND: &str = "plan";
/// Newest plan-record version this build writes and understands.
const PLAN_RECORD_VERSION: u32 = 1;

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

/// What a snapshot import merged into the engine. Deliberate API: what
/// [`import_string`] and [`load_from_path`] return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Plan entries adopted into the cache.
    pub plans: u64,
    /// Records skipped: unknown kind (an older build's `initial_memo` too),
    /// newer record version, malformed body, or a plan whose stored key is
    /// not its request's content address.
    pub skipped: u64,
    /// Snapshot size in bytes (as read).
    pub bytes: u64,
}

/// The engine's persistent state — its plan-cache entries — as store
/// records sorted by cache key, ready for [`qsync_store::encode`].
/// Deterministic given the cache contents: two engines with identical
/// resident plans produce byte-identical record lists (the replica-coherence
/// checks compare exactly this).
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

/// Merge verified records into the engine, skipping (and counting) anything
/// this build does not understand. Plan adoption goes through
/// `PlanEngine::adopt_plan`, so a drifted key schema downgrades to a skip.
fn import_records(engine: &PlanEngine, records: Vec<Record>) -> ImportStats {
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
    let records = plan_records(engine);
    let entries = records.len() as u64;
    (qsync_store::encode(&records), entries)
}

/// Atomically write a snapshot of the engine to `path`, recording the
/// persistence instruments. Returns `(entries, bytes)` written.
pub(crate) fn snapshot_to_path(engine: &PlanEngine, path: &Path) -> Result<(u64, u64), StoreError> {
    let started = Instant::now();
    let records = plan_records(engine);
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
        assert_eq!(entries, 2);

        let replica = PlanEngine::new();
        let stats = import_string(&replica, &text).unwrap();
        assert_eq!(stats.plans, 2);
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
        let mut records = plan_records(&primary);
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
    fn snapshot_file_round_trips_and_corruption_loads_nothing() {
        let primary = planned_engine();
        let dir = std::env::temp_dir().join(format!("qsync-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.qss");
        let (entries, bytes) = snapshot_to_path(&primary, &path).unwrap();
        assert!(entries == 2 && bytes > 0);

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
        std::fs::remove_dir_all(&dir).ok();
    }
}
