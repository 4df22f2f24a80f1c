//! End-to-end tests of the plan-serving subsystem: request → plan → delta →
//! warm re-plan, concurrency, cache-hit byte-identity, and the TCP transport.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use qsync_cluster::device::GpuModel;
use qsync_cluster::topology::ClusterSpec;
use qsync_serve::{
    ClusterDelta, DeltaRequest, IndicatorChoice, ModelSpec, PlanEngine, PlanOutcome, PlanRequest,
    PlanServer, ServerCommand, ServerReply,
};

fn mlp() -> ModelSpec {
    ModelSpec::SmallMlp { batch: 16, in_features: 32, hidden: 64, classes: 8 }
}

#[test]
fn full_lifecycle_request_plan_delta_replan() {
    let engine = PlanEngine::new();
    let cluster = ClusterSpec::hybrid_small();

    // 1. Cold plan.
    let request = PlanRequest::new(1, mlp(), cluster.clone());
    let cold = engine.plan(&request).unwrap();
    assert_eq!(cold.outcome, PlanOutcome::ColdPlanned);
    assert!(cold.predicted_iteration_us > 0.0);

    // 2. Identical request: cache hit, byte-identical serialized plan.
    let hit = engine.plan(&PlanRequest::new(2, mlp(), cluster.clone())).unwrap();
    assert_eq!(hit.outcome, PlanOutcome::CacheHit);
    assert_eq!(hit.plan_json().as_bytes(), cold.plan_json().as_bytes());

    // 3. An inference device degrades; the cached entry is invalidated and
    //    re-planned warm against the new shape.
    let rank = cluster.inference_ranks()[0];
    let delta = DeltaRequest::new(
        3,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction: 0.35, compute_fraction: 0.9 },
    );
    let outcome = engine.apply_delta(&delta).unwrap();
    assert_eq!(outcome.invalidated, 1);
    assert_eq!(outcome.replanned.len(), 1);
    let warm = &outcome.replanned[0];
    assert_eq!(warm.outcome, PlanOutcome::WarmReplanned);
    // Warm start resumes from the cached assignment: recovery re-accepts at
    // most as many promotions as the cold run needed from scratch.
    assert!(
        warm.promotions_accepted <= cold.promotions_accepted,
        "warm accepted {} > cold {}",
        warm.promotions_accepted,
        cold.promotions_accepted
    );

    // 4. The new shape is now served from cache.
    let new_cluster = delta.delta.apply(&cluster).unwrap();
    let after = engine.plan(&PlanRequest::new(4, mlp(), new_cluster)).unwrap();
    assert_eq!(after.outcome, PlanOutcome::CacheHit);
    assert_eq!(after.plan_json().as_bytes(), warm.plan_json().as_bytes());
}

#[test]
fn rank_changes_invalidate_and_replan() {
    let engine = PlanEngine::new();
    let cluster = ClusterSpec::cluster_a(1, 1);
    engine.plan(&PlanRequest::new(1, mlp(), cluster.clone())).unwrap();

    // A T4 joins.
    let join = DeltaRequest::new(
        2,
        cluster.clone(),
        ClusterDelta::RankAdded {
            model: GpuModel::T4,
            memory_fraction: 1.0,
            compute_fraction: 1.0,
        },
    );
    let joined = engine.apply_delta(&join).unwrap();
    assert_eq!(joined.invalidated, 1);
    let grown = join.delta.apply(&cluster).unwrap();
    assert_eq!(grown.world_size(), 3);

    // The same T4 leaves again: plans keyed to the grown cluster are evicted.
    let leave = DeltaRequest::new(3, grown.clone(), ClusterDelta::RankRemoved { rank: 2 });
    let left = engine.apply_delta(&leave).unwrap();
    assert_eq!(left.invalidated, 1);
    assert_eq!(left.replanned.len(), 1);
    // Shrinking back restores the original fingerprint, so the re-plan landed
    // on the original key.
    let shrunk = leave.delta.apply(&grown).unwrap();
    assert_eq!(shrunk.fingerprint(), cluster.fingerprint());
    let hit = engine.plan(&PlanRequest::new(4, mlp(), cluster)).unwrap();
    assert_eq!(hit.outcome, PlanOutcome::CacheHit);
}

#[test]
fn sixteen_concurrent_requests_plan_once_per_distinct_key() {
    let engine = PlanEngine::shared();
    let cluster = ClusterSpec::hybrid_small();
    // 16 concurrent requests over 2 distinct keys: single-flight must plan
    // each key exactly once and serve the rest as hits.
    std::thread::scope(|scope| {
        for i in 0..16u64 {
            let engine = Arc::clone(&engine);
            let cluster = cluster.clone();
            scope.spawn(move || {
                let model = if i % 2 == 0 {
                    mlp()
                } else {
                    ModelSpec::SmallCnn { batch: 4, image: 16, classes: 10 }
                };
                let response = engine.plan(&PlanRequest::new(i, model, cluster)).unwrap();
                assert_eq!(response.id, i);
                assert!(response.predicted_iteration_us > 0.0);
            });
        }
    });
    let stats = engine.cache().stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.misses, 2, "single-flight must collapse duplicate planning");
    assert_eq!(stats.hits, 14);
}

#[test]
fn line_protocol_serves_plans_and_deltas_in_order() {
    let cluster = ClusterSpec::hybrid_small();
    let mut input = String::new();
    for id in 0..8u64 {
        let cmd = ServerCommand::Plan(PlanRequest::new(id, mlp(), cluster.clone()));
        input.push_str(&serde_json::to_string(&cmd).unwrap());
        input.push('\n');
    }
    let rank = cluster.inference_ranks()[0];
    let delta = ServerCommand::Delta(DeltaRequest::new(
        100,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction: 0.5, compute_fraction: 1.0 },
    ));
    input.push_str(&serde_json::to_string(&delta).unwrap());
    input.push('\n');
    input.push_str(&serde_json::to_string(&ServerCommand::Stats { id: 101 }).unwrap());
    input.push('\n');

    let server = PlanServer::new(8);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();

    let replies: Vec<ServerReply> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(replies.len(), 10);

    let plans: Vec<_> = replies
        .iter()
        .filter_map(|r| match r {
            ServerReply::Plan(p) => Some(p),
            _ => None,
        })
        .collect();
    assert_eq!(plans.len(), 8);
    // All 8 plan replies name the same key; exactly one planned cold.
    assert!(plans.iter().all(|p| p.key == plans[0].key));
    assert_eq!(plans.iter().filter(|p| p.outcome == PlanOutcome::ColdPlanned).count(), 1);

    // The delta is a barrier: it ran after all 8 plans, so it saw the entry.
    let delta_reply = replies
        .iter()
        .find_map(|r| match r {
            ServerReply::Delta(d) => Some(d),
            _ => None,
        })
        .expect("delta reply");
    assert_eq!(delta_reply.id, 100);
    assert_eq!(delta_reply.invalidated, 1);
    assert_eq!(delta_reply.replanned.len(), 1);
}

#[test]
fn tcp_transport_round_trips() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let server = PlanServer::new(2);

    let server_thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        server.serve_stream(stream).expect("serve stream");
    });

    let mut client = TcpStream::connect(addr).expect("connect");
    let request = ServerCommand::Plan(PlanRequest::new(9, mlp(), ClusterSpec::hybrid_small()));
    writeln!(client, "{}", serde_json::to_string(&request).unwrap()).unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();

    let mut lines = BufReader::new(client).lines();
    let reply: ServerReply = serde_json::from_str(&lines.next().unwrap().unwrap()).unwrap();
    match reply {
        ServerReply::Plan(p) => {
            assert_eq!(p.id, 9);
            assert_eq!(p.outcome, PlanOutcome::ColdPlanned);
        }
        other => panic!("expected plan reply, got {other:?}"),
    }
    server_thread.join().unwrap();
}

#[test]
fn indicator_and_constraint_variants_serve_distinct_plans() {
    let engine = PlanEngine::new();
    let cluster = ClusterSpec::hybrid_small();
    let mut base = PlanRequest::new(1, mlp(), cluster.clone());
    let default_plan = engine.plan(&base).unwrap();

    base.id = 2;
    base.indicator = IndicatorChoice::Random;
    let random_plan = engine.plan(&base).unwrap();
    assert_eq!(random_plan.outcome, PlanOutcome::ColdPlanned);
    assert_ne!(random_plan.key, default_plan.key);

    let mut tight = PlanRequest::new(3, mlp(), cluster);
    tight.memory_limit_fraction = Some(0.2);
    let tight_plan = engine.plan(&tight).unwrap();
    assert_eq!(tight_plan.outcome, PlanOutcome::ColdPlanned);
    assert_ne!(tight_plan.key, default_plan.key);
    assert_eq!(engine.cache().len(), 3);
}

#[test]
fn a_flag_the_subcommand_does_not_take_is_an_error_not_a_no_op() {
    use std::process::{Command, Stdio};
    // With stdin closed a server that swallowed the flag would serve the
    // empty stream and exit 0.
    for args in [
        ["serve", "--no-such-flag", "1"],
        ["serve", "--listen", "127.0.0.1:0"], // the flag is --tcp
        ["plan", "--workers", "2"],           // a `serve` flag
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_qsync-serve"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run qsync-serve");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {}", args[1])), "{args:?}: {stderr}");
        let valid = if args[0] == "serve" { "--tcp" } else { "--model" };
        assert!(stderr.contains(valid), "{args:?} should list the valid flags: {stderr}");
    }
}
