//! Integration tests for the scheduled serving path: delta waves
//! (batched waves, byte-identity to serial application), scheduler-aware wire
//! fields, admission control and deadline accounting through the protocol.

use std::sync::Arc;

use qsync_cluster::topology::ClusterSpec;
use qsync_serve::{
    ClusterDelta, DeltaRequest, ModelSpec, PlanEngine, PlanOutcome, PlanRequest, PlanServer,
    Priority, SchedConfig, ServerCommand, ServerReply,
};

mod common;
use common::TestServer;

fn mlp() -> ModelSpec {
    ModelSpec::SmallMlp { batch: 16, in_features: 32, hidden: 64, classes: 8 }
}

fn cnn() -> ModelSpec {
    ModelSpec::SmallCnn { batch: 4, image: 16, classes: 10 }
}

/// Degrade the cluster's first inference rank to the given memory fraction.
fn degrade(id: u64, cluster: &ClusterSpec, memory_fraction: f64) -> DeltaRequest {
    let rank = cluster.inference_ranks()[0];
    DeltaRequest::new(
        id,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction, compute_fraction: 0.9 },
    )
}

/// Pre-warm an engine with two model entries on `cluster`.
fn warmed_engine(cluster: &ClusterSpec) -> PlanEngine {
    let engine = PlanEngine::new();
    engine.plan(&PlanRequest::new(1, mlp(), cluster.clone())).unwrap();
    engine.plan(&PlanRequest::new(2, cnn(), cluster.clone())).unwrap();
    engine
}

#[test]
fn batched_deltas_match_serial_application_byte_identically() {
    let base = ClusterSpec::hybrid_small();

    // Serial reference: apply each delta one at a time, chaining the cluster
    // shape each delta names (the pre-batching client behavior).
    let serial = warmed_engine(&base);
    let d1 = degrade(10, &base, 0.6);
    let shape1 = d1.delta.apply(&base).unwrap();
    let r1 = serial.apply_delta(&d1).unwrap();
    assert_eq!(r1.invalidated, 2);
    assert_eq!(r1.coalesced, 1);
    let d2 = degrade(11, &shape1, 0.4);
    let shape2 = d2.delta.apply(&shape1).unwrap();
    let r2 = serial.apply_delta(&d2).unwrap();
    let d3 = DeltaRequest::new(
        12,
        shape2.clone(),
        ClusterDelta::RankAdded {
            model: qsync_cluster::device::GpuModel::T4,
            memory_fraction: 1.0,
            compute_fraction: 1.0,
        },
    );
    let shape3 = d3.delta.apply(&shape2).unwrap();
    let r3 = serial.apply_delta(&d3).unwrap();
    assert_eq!(r2.replanned.len(), 2);
    assert_eq!(r3.replanned.len(), 2);

    // Batched: the same three events submitted concurrently, all naming the
    // *base* cluster — composed into one wave.
    let batched = warmed_engine(&base);
    let concurrent = [
        degrade(20, &base, 0.6),
        degrade(21, &base, 0.4),
        DeltaRequest::new(22, base.clone(), d3.delta.clone()),
    ];
    let outcomes = batched.apply_deltas_with(&concurrent, |chains| {
        chains.iter().map(|c| batched.run_replan_chain(c)).collect()
    });
    let outcomes: Vec<_> = outcomes.into_iter().map(|o| o.unwrap()).collect();

    // One wave, three coalesced events, chains re-planned once per entry.
    assert_eq!(batched.delta_stats().waves, 1);
    assert_eq!(batched.delta_stats().events, 3);
    assert_eq!(batched.delta_stats().batched_replans, 2);
    assert_eq!(serial.delta_stats().waves, 3, "serial reference applied three waves");
    for outcome in &outcomes {
        assert_eq!(outcome.coalesced, 3);
        assert_eq!(outcome.invalidated, 2);
    }
    // Composition follows arrival order: the members' fingerprints chain.
    assert_eq!(outcomes[0].old_cluster_fingerprint, format!("{:032x}", base.fingerprint()));
    assert_eq!(outcomes[1].old_cluster_fingerprint, format!("{:032x}", shape1.fingerprint()));
    assert_eq!(outcomes[2].new_cluster_fingerprint, format!("{:032x}", shape3.fingerprint()));
    // Only the last member carries the final re-plans.
    assert!(outcomes[0].replanned.is_empty());
    assert!(outcomes[1].replanned.is_empty());
    assert_eq!(outcomes[2].replanned.len(), 2);

    // Byte-identity: the batched wave's final plans equal the serial chain's,
    // per model, and the final cache serves the same bytes.
    for final_serial in &r3.replanned {
        let twin = outcomes[2]
            .replanned
            .iter()
            .find(|p| p.key == final_serial.key)
            .expect("batched wave re-planned the same keys");
        assert_eq!(twin.plan_json().as_bytes(), final_serial.plan_json().as_bytes());
        assert_eq!(twin.outcome, final_serial.outcome);
    }
    for (engine, label) in [(&serial, "serial"), (&batched, "batched")] {
        let hit = engine.plan(&PlanRequest::new(30, mlp(), shape3.clone())).unwrap();
        assert_eq!(hit.outcome, PlanOutcome::CacheHit, "{label} cache misses the final shape");
    }
    assert_eq!(
        serial.plan(&PlanRequest::new(31, mlp(), shape3.clone())).unwrap().plan_json(),
        batched.plan(&PlanRequest::new(31, mlp(), shape3.clone())).unwrap().plan_json(),
    );
}

#[test]
fn concurrent_deltas_coalesce_into_shared_waves() {
    let base = ClusterSpec::hybrid_small();
    let engine = Arc::new(warmed_engine(&base));
    let server = TestServer::spawn(PlanServer::with_engine(Arc::clone(&engine), 2));
    // 8 connections concurrently submit the *same* degradation (idempotent
    // under composition: the final shape is stable no matter how many
    // compose). Whatever is queued when the delta thread starts a wave goes
    // together; arrivals during a wave form the next one.
    let final_shape = degrade(0, &base, 0.5).delta.apply(&base).unwrap();
    std::thread::scope(|scope| {
        for i in 0..8u64 {
            let mut client = server.client();
            let request = degrade(100 + i, &base, 0.5);
            scope.spawn(move || {
                client.send(&ServerCommand::Delta(request));
                let ServerReply::Delta(outcome) = client.recv() else { panic!("delta reply") };
                assert_eq!(outcome.id, 100 + i);
            });
        }
    });
    let stats = engine.delta_stats();
    assert_eq!(stats.events, 8);
    assert!(stats.waves <= 8, "waves never exceed events");
    assert!(stats.waves >= 1);
    // Whatever the interleaving, the final shape is cached and correct.
    let hit = engine.plan(&PlanRequest::new(200, mlp(), final_shape.clone())).unwrap();
    assert_eq!(hit.outcome, PlanOutcome::CacheHit);
    let fresh = PlanEngine::new().plan(&PlanRequest::new(200, mlp(), final_shape)).unwrap();
    assert_eq!(hit.plan_json(), fresh.plan_json(), "coalesced replan differs from cold truth");
}

#[test]
fn delta_through_server_fans_replans_over_the_batch_class() {
    let cluster = ClusterSpec::hybrid_small();
    let engine = PlanEngine::shared();
    let server = TestServer::spawn(PlanServer::with_engine(Arc::clone(&engine), 4));
    let mut client = server.client();

    // Interactive exchange so the ordering is deterministic: both plans are
    // *completed* (replies read) before the delta goes out, and the stats
    // read happens only after the delta reply lands.
    for (id, model) in [(1u64, mlp()), (2, cnn())] {
        client.send(&ServerCommand::Plan(PlanRequest::new(id, model, cluster.clone())));
        assert!(matches!(client.recv(), ServerReply::Plan(_)));
    }
    client.send(&ServerCommand::Delta(degrade(3, &cluster, 0.5)));
    let ServerReply::Delta(delta_reply) = client.recv() else { panic!("delta reply") };
    assert_eq!(delta_reply.invalidated, 2);
    assert_eq!(delta_reply.replanned.len(), 2);

    // The re-plans ran as batch-class scheduler jobs, not on the delta
    // thread.
    client.send(&ServerCommand::Stats { id: 4 });
    let ServerReply::Stats { sched: Some(sched), .. } = client.recv() else {
        panic!("stats reply")
    };
    // `dispatched` is ordered before the wave's result collection; `completed`
    // (the dispatch-drop counter) may lag the Stats read by a hair.
    assert_eq!(sched.batch.submitted, 2, "two replan chains were submitted batch-class");
    assert_eq!(sched.batch.dispatched, 2, "both replan chains ran on the pool");
    assert_eq!(sched.interactive.completed, 2, "the delta barrier saw both plans complete");
    assert_eq!(engine.delta_stats().batched_replans, 2);
}

#[test]
fn scheduling_fields_flow_through_the_wire() {
    let cluster = ClusterSpec::hybrid_small();
    let mut tagged = PlanRequest::new(1, mlp(), cluster.clone());
    tagged.priority = Some(Priority::Background);
    tagged.client_id = Some("tenant-a".into());
    tagged.deadline_ms = Some(60_000); // generous: must be met
    let mut input = serde_json::to_string(&ServerCommand::Plan(tagged)).unwrap();
    input.push('\n');
    input.push_str(&serde_json::to_string(&ServerCommand::Stats { id: 2 }).unwrap());
    input.push('\n');

    let server = PlanServer::new(2);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let replies: Vec<ServerReply> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(replies.iter().any(|r| matches!(r, ServerReply::Plan(p) if p.id == 1)));

    // EOF quiesces the pool, so by the end the background job completed and
    // the deadline was accounted (met: 60 s of headroom).
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(&b"{\"Stats\":{\"id\":9}}\n"[..], &mut out).unwrap();
    let stats: ServerReply = serde_json::from_str(String::from_utf8(out).unwrap().trim()).unwrap();
    let ServerReply::Stats { deltas, .. } = &stats else { panic!("stats reply") };
    assert_eq!(deltas.waves, 0);
    // Scheduler stats come from the in-stream reply (the scheduler lives per
    // stream); submitted/completed land in the background class.
    let sched_seen = replies.iter().any(|r| {
        matches!(r, ServerReply::Stats { sched: Some(s), .. }
            if s.background.submitted == 1 && s.deadline_met + s.deadline_misses <= 1)
    });
    assert!(sched_seen, "background submission visible in scheduler stats");
}

#[test]
fn shed_expired_server_answers_expired_plans_with_errors() {
    // deadline_ms: 0 with shed_expired: jobs whose deadline has passed at
    // dispatch are answered without planning. With a same-millisecond
    // dispatch the job is *not* expired (deadline is inclusive), so both
    // outcomes are legal — but the reply accounting must be consistent: one
    // reply, and (misses + met) == 1 afterwards.
    let engine = PlanEngine::shared();
    let config = SchedConfig { shed_expired: true, ..SchedConfig::default() };
    let server = PlanServer::with_sched(Arc::clone(&engine), 1, config);
    let mut request = PlanRequest::new(1, mlp(), ClusterSpec::hybrid_small());
    request.deadline_ms = Some(0);
    let mut input = serde_json::to_string(&ServerCommand::Plan(request)).unwrap();
    input.push('\n');
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let replies: Vec<ServerReply> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(replies.len(), 1);
    match &replies[0] {
        ServerReply::Plan(p) => assert_eq!(p.id, 1),
        ServerReply::Error { id, message } => {
            assert_eq!(*id, Some(1));
            assert!(message.contains("deadline exceeded"), "unexpected: {message}");
        }
        other => panic!("unexpected reply {other:?}"),
    }
}
