//! End-to-end persistence and replication: real `qsync-serve` processes on
//! real TCP sockets, real snapshot files on disk.
//!
//! * Warm boot: plan a model zoo, snapshot, **restart the process**, and
//!   serve the whole zoo again without a single cold plan.
//! * Corruption: a flipped snapshot never prevents boot — the server comes
//!   up cold and plans normally.
//! * Replication: a `--follow` replica process converges to byte-identical
//!   plan-cache contents through bootstrap, a delta wave, and a primary
//!   kill/restart (link cut + resync).

mod common;

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qsync_client::MuxClient;
use qsync_cluster::topology::ClusterSpec;
use qsync_serve::{ClusterDelta, DeltaRequest, ModelSpec, PlanOutcome, PlanRequest};

const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsync-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// An OS-assigned free port, released before use (tiny reuse race, retried
/// by the spawn loop).
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0").expect("probe port").local_addr().unwrap().port()
}

/// One `qsync-serve serve` child process; killed on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `qsync-serve serve --tcp 127.0.0.1:<port> <extra>` and wait for
    /// the socket to accept. A child that exits early (e.g. the port was
    /// still in TIME_WAIT from a killed predecessor) is respawned until the
    /// deadline.
    fn spawn(port: u16, extra: &[&str]) -> ServerProc {
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            let mut child = Command::new(env!("CARGO_BIN_EXE_qsync-serve"))
                .args(["serve", "--tcp", &addr.to_string(), "--workers", "2"])
                .args(extra)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn qsync-serve");
            loop {
                if TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok() {
                    return ServerProc { child, addr };
                }
                if child.try_wait().expect("child status").is_some() {
                    break; // bind lost a race; respawn below
                }
                assert!(Instant::now() < deadline, "server on {addr} never came up");
                std::thread::sleep(Duration::from_millis(50));
            }
            assert!(Instant::now() < deadline, "server on {addr} kept exiting at startup");
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    fn client(&self) -> MuxClient {
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            match MuxClient::connect(self.addr) {
                Ok(client) => return client,
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect {}: {e}", self.addr);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Kill the process outright (no shutdown snapshot — tests that need
    /// one issue an explicit `Snapshot` command first).
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The model zoo every persistence test plans: distinct graphs and batch
/// sizes, all on one cluster shape.
fn zoo(cluster: &ClusterSpec) -> Vec<PlanRequest> {
    let models = [
        ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
        ModelSpec::SmallMlp { batch: 16, in_features: 16, hidden: 32, classes: 4 },
        ModelSpec::SmallMlp { batch: 32, in_features: 32, hidden: 64, classes: 8 },
        ModelSpec::SmallCnn { batch: 4, image: 16, classes: 4 },
        ModelSpec::SmallCnn { batch: 8, image: 16, classes: 4 },
    ];
    models
        .into_iter()
        .enumerate()
        .map(|(i, model)| PlanRequest::new(i as u64, model, cluster.clone()))
        .collect()
}

/// A live server's whole snapshot, pulled over the wire by `FetchSnapshot`.
fn wire_snapshot(mux: &MuxClient) -> String {
    mux.fetch_snapshot().expect("fetch snapshot").data
}

/// Poll until two servers report byte-identical snapshots (and at least
/// `min_entries` plan records), panicking with a diff summary on timeout.
fn wait_converged(primary: &MuxClient, replica: &MuxClient, min_entries: usize) {
    let deadline = Instant::now() + CONVERGE_TIMEOUT;
    loop {
        let p = wire_snapshot(primary);
        let r = wire_snapshot(replica);
        let entries = qsync_store::decode(&p).expect("primary snapshot").records.len();
        if p == r && entries >= min_entries {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica never converged: primary has {entries} plan records, encodings {}",
            if p == r { "match" } else { "differ" }
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn degrade(cluster: &ClusterSpec, memory_fraction: f64) -> DeltaRequest {
    let rank = cluster.inference_ranks()[0];
    DeltaRequest::new(
        0,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction, compute_fraction: 0.95 },
    )
}

fn cold_plan_count(mux: &MuxClient) -> u64 {
    let metrics = mux.metrics().expect("metrics");
    metrics.histogram("qsync_plan_latency_us{kind=\"cold\"}").map(|h| h.count).unwrap_or(0)
}

#[test]
fn warm_boot_restart_serves_the_zoo_entirely_from_cache() {
    let dir = scratch("warm-boot");
    let store = dir.join("plans.qstore");
    let store_flag = store.to_str().unwrap();
    let cluster = ClusterSpec::hybrid_small();

    // Generation 1: plan the zoo cold, snapshot, die without ceremony.
    let gen1 = ServerProc::spawn(free_port(), &["--store", store_flag]);
    {
        let mux = gen1.client();
        for request in zoo(&cluster) {
            let response = mux.plan(request).expect("cold plan");
            assert_ne!(response.outcome, PlanOutcome::CacheHit, "fresh server, fresh keys");
        }
        let info = mux.snapshot(None).expect("snapshot to the configured store");
        assert!(info.entries >= zoo(&cluster).len() as u64);
        assert_eq!(info.path, store.display().to_string());
    }
    gen1.kill();
    assert!(store.exists(), "snapshot file persisted");

    // Generation 2: a new process over the same store file. Every zoo
    // request must be served from the warm-loaded cache — zero cold plans.
    let gen2 = ServerProc::spawn(free_port(), &["--store", store_flag]);
    let mux = gen2.client();
    for request in zoo(&cluster) {
        let response = mux.plan(request).expect("warm-boot plan");
        assert_eq!(response.outcome, PlanOutcome::CacheHit, "key {}", response.key);
    }
    assert_eq!(cold_plan_count(&mux), 0, "the restarted server never planned cold");
    let metrics = mux.metrics().expect("metrics");
    assert!(
        metrics.histogram("qsync_store_snapshot_load_us").map(|h| h.count).unwrap_or(0) >= 1,
        "warm boot recorded a snapshot load"
    );
    drop(mux);
    gen2.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_boots_cold_and_still_serves() {
    let dir = scratch("corrupt-boot");
    let store = dir.join("plans.qstore");
    std::fs::write(&store, b"qsync-store 1 0 deadbeef\nnot a record at all\n").unwrap();

    let server = ServerProc::spawn(free_port(), &["--store", store.to_str().unwrap()]);
    let mux = server.client();
    let response = mux
        .plan(PlanRequest::new(
            1,
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ClusterSpec::hybrid_small(),
        ))
        .expect("a corrupt store never prevents serving");
    assert_eq!(response.outcome, PlanOutcome::ColdPlanned, "nothing warm-loaded");
    // An explicit Snapshot heals the file in place.
    let info = mux.snapshot(None).expect("snapshot over the corrupt file");
    assert_eq!(info.entries, 1, "one plan record");
    let loaded = mux.load(None).expect("the healed file loads");
    assert_eq!((loaded.plans, loaded.skipped), (1, 0));
    drop(mux);
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_converges_through_delta_wave_and_primary_restart() {
    let dir = scratch("replication");
    let store = dir.join("primary.qstore");
    let store_flag = store.to_str().unwrap();
    let cluster = ClusterSpec::hybrid_small();

    let primary_port = free_port();
    let primary = ServerProc::spawn(primary_port, &["--store", store_flag]);
    let replica =
        ServerProc::spawn(free_port(), &["--follow", &primary.addr.to_string()]);
    let pmux = primary.client();
    let rmux = replica.client();

    // Bootstrap: the replica pulls the snapshot and mirrors the zoo.
    let mut keys = HashSet::new();
    for request in zoo(&cluster) {
        keys.insert(pmux.plan(request).expect("primary plans").key);
    }
    wait_converged(&pmux, &rmux, keys.len());

    // Delta wave: invalidations + warm re-plans ship as adopt events.
    let outcome = pmux.delta(degrade(&cluster, 0.5)).expect("delta applies");
    assert!(outcome.invalidated > 0, "the wave actually invalidated something");
    wait_converged(&pmux, &rmux, 1);

    // Link cut: persist, kill the primary, restart it on the same port from
    // its store. The replica reconnects, resyncs and pulls afresh.
    pmux.snapshot(None).expect("persist before the cut");
    drop(pmux);
    primary.kill();
    let primary2 = ServerProc::spawn(primary_port, &["--store", store_flag]);
    let pmux2 = primary2.client();

    // Post-restart traffic proves the resynced stream stays coherent.
    let extra = PlanRequest::new(
        99,
        ModelSpec::SmallMlp { batch: 64, in_features: 16, hidden: 32, classes: 4 },
        cluster.clone(),
    );
    pmux2.plan(extra).expect("new primary plans");
    wait_converged(&pmux2, &rmux, 2);

    // The replica did all of this without planning: every entry was adopted.
    assert_eq!(cold_plan_count(&rmux), 0, "the replica never planned cold");
    let metrics = rmux.metrics().expect("replica metrics");
    assert!(
        metrics.counter("qsync_replica_resync_pulls_total").unwrap_or(0) >= 2,
        "bootstrap + post-restart resync both pulled snapshots"
    );

    drop(rmux);
    drop(pmux2);
    replica.kill();
    primary2.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed golden snapshot fixture still warm-loads: snapshots written
/// by past builds must keep working on future ones. The fixture was written
/// by a build that also persisted `initial_memo` records, which this build
/// reads and skips, so it is never regenerated: a new format gets a new
/// fixture beside it.
#[test]
fn golden_snapshot_fixture_warm_loads() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store_v1.qstore");
    let cluster = ClusterSpec::hybrid_small();
    let requests = zoo(&cluster);

    let records = qsync_store::read(&fixture).expect("fixture verifies").records;
    let old_memos = records.iter().filter(|r| r.kind == "initial_memo").count();
    assert_eq!(old_memos, requests.len(), "the fixture's initial_memo records");
    let engine = qsync_serve::PlanEngine::new();
    let stats = qsync_serve::persist::load_from_path(&engine, &fixture).expect("fixture loads");
    assert_eq!(stats.plans, requests.len() as u64, "every fixture plan adopted");
    assert_eq!(stats.skipped, old_memos as u64, "exactly the old memo records skipped");
    for request in requests {
        let response = engine.plan(&request).expect("fixture-warmed plan");
        assert_eq!(response.outcome, PlanOutcome::CacheHit, "key {}", response.key);
    }
}
