//! Unit tests of [`super`].

use super::*;
use qsync_api::ModelSpec;
use qsync_cluster::topology::ClusterSpec;

fn plan_line(id: u64) -> String {
    let request = PlanRequest::new(
        id,
        ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
        ClusterSpec::hybrid_small(),
    );
    serde_json::to_string(&ServerCommand::Plan(request)).unwrap()
}

fn parse_replies(raw: &[u8]) -> Vec<ServerReply> {
    String::from_utf8_lossy(raw)
        .lines()
        .map(|l| serde_json::from_str::<ServerReply>(l).expect("reply parses"))
        .collect()
}

#[test]
fn serves_a_stream_of_commands() {
    let input = format!("{}\n{}\n{}\n", plan_line(1), plan_line(2), r#"{"Stats":{"id":3}}"#);
    let server = PlanServer::new(4);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let replies = parse_replies(&out);
    assert_eq!(replies.len(), 3);
    // Stats answers immediately (no barrier), so the streamed reply may
    // predate the plan completions — only its presence is asserted here.
    assert!(replies.iter().any(|r| matches!(r, ServerReply::Stats { id: 3, .. })));
    // After EOF every worker has drained: identical requests were one
    // miss then one hit.
    let stats = server.engine().cache().stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn hit_after_same_key_replacement_is_spliced_from_the_new_entry() {
    // One worker, one connection: replies arrive in request order.
    let server = PlanServer::new(1);
    let serve = |input: String| -> Vec<String> {
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap().lines().map(str::to_owned).collect()
    };
    // A hit line must be the canonical rendering of the response it
    // carries, and that response must be `entry`'s.
    let assert_hit_of = |line: &str, entry: &PlanResponse| {
        let ServerReply::Plan(hit) = serde_json::from_str(line).expect("reply parses") else {
            panic!("expected a Plan reply: {line}");
        };
        assert_eq!(render_reply(WireProto::V0, &ServerReply::Plan(hit.clone())), line);
        let want = PlanResponse {
            id: hit.id,
            outcome: PlanOutcome::CacheHit,
            elapsed_us: hit.elapsed_us,
            trace_id: hit.trace_id,
            ..entry.clone()
        };
        assert_eq!(hit, want);
    };

    // Cold plan, then two hits — the second spliced from the body the
    // first one rendered.
    let lines = serve(format!("{}\n{}\n{}\n", plan_line(1), plan_line(2), plan_line(3)));
    assert_eq!(lines.len(), 3);
    let ServerReply::Plan(cold) = serde_json::from_str(&lines[0]).unwrap() else {
        panic!("expected a Plan reply: {}", lines[0]);
    };
    assert_eq!(cold.outcome, PlanOutcome::ColdPlanned);
    assert_hit_of(&lines[1], &cold);
    assert_hit_of(&lines[2], &cold);

    // Replace the entry under the SAME key with a different plan, as a
    // replica adopting its primary's re-plan does.
    let engine = server.engine();
    let old = engine.cache().peek(&cold.key).expect("entry resident");
    let adopted = PlanResponse {
        predicted_iteration_us: old.response.predicted_iteration_us * 2.0,
        promotions_accepted: old.response.promotions_accepted + 5,
        warm_demotions: 2,
        outcome: PlanOutcome::WarmReplanned,
        ..old.response.clone()
    };
    assert!(engine.adopt_plan(old.request, adopted.clone(), old.inference_pdag));
    let lines = serve(format!("{}\n{}\n", plan_line(4), plan_line(5)));
    assert_eq!(lines.len(), 2);
    assert_hit_of(&lines[0], &adopted);
    assert_hit_of(&lines[1], &adopted);
}

#[test]
fn bad_lines_produce_error_replies() {
    let input = "this is not json\n";
    let server = PlanServer::new(1);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let replies = parse_replies(&out);
    assert_eq!(replies.len(), 1);
    // Legacy lines draw the legacy error shape, byte-compatible with v0.
    assert!(matches!(&replies[0], ServerReply::Error { id: None, .. }));
}

#[test]
fn enveloped_commands_get_enveloped_replies() {
    let plan: ServerCommand = serde_json::from_str(&plan_line(4)).unwrap();
    let input = format!(
        "{}\n{}\n",
        serde_json::to_string(&qsync_api::RequestEnvelope::v1(plan)).unwrap(),
        r#"{"v":1,"id":9,"cmd":{"Stats":{"id":9}}}"#,
    );
    let server = PlanServer::new(2);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let envelopes: Vec<qsync_api::ReplyEnvelope> = String::from_utf8_lossy(&out)
        .lines()
        .map(|l| serde_json::from_str(l).expect("enveloped reply parses"))
        .collect();
    assert_eq!(envelopes.len(), 2);
    assert!(envelopes.iter().all(|e| e.v == qsync_api::PROTOCOL_VERSION));
    assert!(envelopes
        .iter()
        .any(|e| matches!(&e.reply, ServerReply::Plan(p) if p.id == 4)));
    assert!(envelopes.iter().any(|e| matches!(&e.reply, ServerReply::Stats { id: 9, .. })));
}

#[test]
fn mixed_wire_forms_share_one_connection() {
    // A legacy Stats and an enveloped Stats on the same stream: each is
    // answered in its own form.
    let input = format!("{}\n{}\n", r#"{"Stats":{"id":1}}"#, r#"{"v":1,"cmd":{"Stats":{"id":2}}}"#);
    let server = PlanServer::new(1);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let legacy = lines.iter().find(|l| !l.contains("\"v\":")).expect("legacy reply");
    let enveloped = lines.iter().find(|l| l.contains("\"v\":")).expect("enveloped reply");
    assert!(matches!(
        serde_json::from_str::<ServerReply>(legacy).unwrap(),
        ServerReply::Stats { id: 1, .. }
    ));
    let envelope: qsync_api::ReplyEnvelope = serde_json::from_str(enveloped).unwrap();
    assert!(matches!(envelope.reply, ServerReply::Stats { id: 2, .. }));
}

#[test]
fn hello_advertises_the_supported_version_range() {
    let server = PlanServer::new(1);
    let hello = ServerCommand::Hello { id: 5, min_v: 1, max_v: 1 };
    let input = format!("{}\n", serde_json::to_string(&hello).unwrap());
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let reply = parse_replies(&out).pop().expect("one reply");
    let ServerReply::Hello { id, min_v, max_v, server: ident } = reply else {
        panic!("expected hello reply, got {reply:?}")
    };
    assert_eq!(id, 5);
    assert_eq!(min_v, MIN_PROTOCOL_VERSION);
    assert_eq!(max_v, MAX_PROTOCOL_VERSION);
    assert!(ident.starts_with("qsync-serve/"), "{ident}");
}

#[test]
fn queue_cap_zero_sheds_every_plan() {
    let engine = PlanEngine::shared();
    let sched = SchedConfig { class_caps: [0; 3], ..SchedConfig::default() };
    let server = PlanServer::with_sched(engine, 2, sched);
    let input = format!("{}\n{}\n", plan_line(1), plan_line(2));
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let replies = parse_replies(&out);
    assert_eq!(replies.len(), 2);
    for reply in &replies {
        match reply {
            ServerReply::Error { id: Some(_), message } => {
                assert!(message.contains("shed"), "unexpected message {message:?}");
            }
            other => panic!("expected shed error, got {other:?}"),
        }
    }
    assert_eq!(server.engine().cache().stats().misses, 0, "nothing was planned");
}

#[test]
fn shed_of_an_enveloped_plan_reports_the_queue_full_code() {
    let engine = PlanEngine::shared();
    let sched = SchedConfig { class_caps: [0; 3], ..SchedConfig::default() };
    let server = PlanServer::with_sched(engine, 1, sched);
    let plan: ServerCommand = serde_json::from_str(&plan_line(7)).unwrap();
    let input =
        format!("{}\n", serde_json::to_string(&qsync_api::RequestEnvelope::v1(plan)).unwrap());
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let envelope: qsync_api::ReplyEnvelope =
        serde_json::from_str(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
    let ServerReply::Fault(error) = envelope.reply else {
        panic!("expected structured fault, got {:?}", envelope.reply)
    };
    assert_eq!(error.code, ErrorCode::QueueFull);
    assert_eq!(error.id, Some(7));
    assert!(error.message.contains("shed"));
}

#[test]
fn cancel_of_unknown_plan_reports_false() {
    let input = r#"{"Cancel":{"id":5,"plan_id":99}}"#.to_string() + "\n";
    let server = PlanServer::new(1);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let replies = parse_replies(&out);
    assert_eq!(
        replies,
        vec![ServerReply::Cancelled { id: 5, plan_id: 99, cancelled: false }]
    );
}

#[test]
fn stats_reply_carries_scheduler_counters() {
    let input = format!("{}\n{}\n", plan_line(1), r#"{"Stats":{"id":2}}"#);
    let server = PlanServer::new(1);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let stats = parse_replies(&out)
        .into_iter()
        .find_map(|r| match r {
            ServerReply::Stats { sched, .. } => Some(sched),
            _ => None,
        })
        .expect("stats reply present");
    let sched = stats.expect("streaming path reports scheduler stats");
    assert_eq!(sched.policy, "drr");
    assert_eq!(sched.interactive.submitted, 1);
}

#[test]
fn batch_dispatches_inner_commands_in_order() {
    let plan: ServerCommand = serde_json::from_str(&plan_line(21)).unwrap();
    let batch = ServerCommand::Batch {
        id: 20,
        cmds: vec![plan, ServerCommand::Stats { id: 22 }],
    };
    let input = format!(
        "{}\n",
        serde_json::to_string(&qsync_api::RequestEnvelope::v1(batch)).unwrap()
    );
    let server = PlanServer::new(2);
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let replies: Vec<ServerReply> = String::from_utf8_lossy(&out)
        .lines()
        .map(|l| serde_json::from_str::<qsync_api::ReplyEnvelope>(l).unwrap().reply)
        .collect();
    assert_eq!(replies.len(), 2, "one reply per inner command, none for the batch itself");
    assert!(replies.iter().any(|r| matches!(r, ServerReply::Plan(p) if p.id == 21)));
    assert!(replies.iter().any(|r| matches!(r, ServerReply::Stats { id: 22, .. })));

    // Nested batches are rejected with a structured fault.
    let nested = ServerCommand::Batch {
        id: 30,
        cmds: vec![ServerCommand::Batch { id: 31, cmds: vec![] }],
    };
    let input = format!(
        "{}\n",
        serde_json::to_string(&qsync_api::RequestEnvelope::v1(nested)).unwrap()
    );
    let mut out: Vec<u8> = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let envelope: qsync_api::ReplyEnvelope =
        serde_json::from_str(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
    let ServerReply::Fault(error) = envelope.reply else { panic!("expected fault") };
    assert_eq!(error.code, ErrorCode::InvalidField);
    assert_eq!(error.id, Some(30));
    assert_eq!(error.field.as_deref(), Some("cmds"));
}

#[test]
fn batch_members_get_parse_spans() {
    let engine = PlanEngine::shared();
    let handle = PlanServer::with_engine(Arc::clone(&engine), 1).start_core();
    let (tx, _rx) = mpsc::channel();
    let conn = handle.core.register_conn(Sink::Line(tx));
    let plan: ServerCommand = serde_json::from_str(&plan_line(21)).unwrap();
    let ServerCommand::Plan(mut request) = plan else { panic!("plan_line yields a Plan") };
    request.trace_id = Some(555);
    let mut delta_request = DeltaRequest::new(
        22,
        ClusterSpec::hybrid_small(),
        qsync_api::ClusterDelta::Degraded {
            rank: 0,
            memory_fraction: 0.9,
            compute_fraction: 0.9,
        },
    );
    delta_request.trace_id = Some(556);
    let batch = ServerCommand::Batch {
        id: 20,
        cmds: vec![ServerCommand::Plan(request), ServerCommand::Delta(delta_request)],
    };
    let line =
        serde_json::to_string(&qsync_api::RequestEnvelope::v1(batch)).unwrap();
    // The parse span is recorded synchronously in handle_line, before the
    // inner commands dispatch — so it is visible as soon as the call
    // returns, for every traced payload of the batch.
    handle.core.handle_line(&conn, &line);
    for trace_id in [555, 556] {
        let spans = engine.obs().trace.spans_for(trace_id, 16);
        assert!(
            spans.iter().any(|s| s.stage == "parse"),
            "batch member trace {trace_id} is missing its parse span: {spans:?}"
        );
    }
    handle.stop();
}

fn degrade_line(id: u64) -> String {
    let cluster = ClusterSpec::hybrid_small();
    let rank = cluster.inference_ranks()[0];
    let delta = qsync_api::ClusterDelta::Degraded {
        rank,
        memory_fraction: 0.5,
        compute_fraction: 0.9,
    };
    serde_json::to_string(&ServerCommand::Delta(DeltaRequest::new(id, cluster, delta))).unwrap()
}

/// The `coalesced` count of every `Delta` reply among `lines`, by id.
fn coalesced_by_id(lines: &[String]) -> Vec<(u64, usize)> {
    let mut seen: Vec<(u64, usize)> = lines
        .iter()
        .filter_map(|l| match serde_json::from_str::<ServerReply>(l).expect("reply parses") {
            ServerReply::Delta(outcome) => Some((outcome.id, outcome.coalesced)),
            _ => None,
        })
        .collect();
    seen.sort_unstable();
    seen
}

#[test]
fn collection_window_batches_near_concurrent_deltas_into_one_wave() {
    use crate::sim::{SimConfig, SimServer};
    let windowed = || {
        let config =
            SimConfig { delta_window: Duration::from_millis(400), ..SimConfig::default() };
        let mut server = SimServer::with_config(config);
        let mut conn = server.connect();
        conn.send_line(&plan_line(1));
        server.step();
        assert_eq!(conn.recv_lines().len(), 1, "plan answered");
        // Two deltas staggered well within the window: without it the
        // second would find the first's wave already applied.
        conn.send_line(&degrade_line(10));
        server.advance(60);
        conn.send_line(&degrade_line(11));
        server.step();
        assert!(conn.recv_lines().is_empty(), "both deltas wait out the window");
        (server, conn)
    };

    let (mut server, mut conn) = windowed();
    server.advance(400);
    assert_eq!(coalesced_by_id(&conn.recv_lines()), vec![(10, 2), (11, 2)]);
    let stats = server.engine().delta_stats();
    assert_eq!((stats.waves, stats.events), (1, 2), "one collection window, one wave");

    // Shutdown mid-window: the drain lets virtual time pass, the window
    // lapses and both deltas are still answered (as one wave).
    let (mut server, mut conn) = windowed();
    server.shutdown();
    assert_eq!(coalesced_by_id(&conn.recv_lines()), vec![(10, 2), (11, 2)]);
    assert_eq!(server.engine().delta_stats().waves, 1);
}

#[test]
fn threaded_core_runs_one_delta_thread_beside_its_workers() {
    let handle = PlanServer::new(3).start_core();
    assert_eq!(handle.threads.len(), 3 + 1, "workers + the delta thread");
    handle.stop();
}

#[test]
fn delta_racing_shutdown_is_answered_exactly_once() {
    use std::sync::atomic::AtomicBool;
    let handle = PlanServer::new(2).start_core();
    let core = Arc::clone(&handle.core);
    let (tx, rx) = mpsc::channel();
    let conn = core.register_conn(Sink::Line(tx));
    let stopped = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let sender = {
        let (core, stopped, sent) = (Arc::clone(&core), Arc::clone(&stopped), Arc::clone(&sent));
        thread::spawn(move || {
            // Stream deltas across the stop, then a few more after it.
            let mut after_stop = 0;
            while after_stop < 5 {
                if stopped.load(Ordering::SeqCst) {
                    after_stop += 1;
                }
                core.handle_line(&conn, &degrade_line(sent.fetch_add(1, Ordering::SeqCst)));
            }
        })
    };
    while sent.load(Ordering::SeqCst) < 10 {
        thread::yield_now();
    }
    handle.stop();
    stopped.store(true, Ordering::SeqCst);
    sender.join().expect("sender thread");
    drop(core);
    let sent = sent.load(Ordering::SeqCst);

    let mut replies = vec![0u32; sent as usize];
    let (mut applied, mut refused) = (0, 0);
    for line in rx {
        match serde_json::from_str::<ServerReply>(&line).expect("reply parses") {
            ServerReply::Delta(outcome) => {
                applied += 1;
                replies[outcome.id as usize] += 1;
            }
            ServerReply::Error { id: Some(id), message } => {
                assert!(message.contains("shutting down"), "unexpected error: {message}");
                refused += 1;
                replies[id as usize] += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(replies.iter().all(|&n| n == 1), "a delta was answered {replies:?} times");
    assert!(applied >= 1 && refused >= 5, "applied {applied}, refused {refused} of {sent}");
}

#[test]
fn anonymous_requests_fair_queue_under_the_connection_identity() {
    let engine = PlanEngine::shared();
    let handle = PlanServer::with_engine(Arc::clone(&engine), 1).start_core();
    let (tx_a, _rx_a) = mpsc::channel();
    let (tx_b, _rx_b) = mpsc::channel();
    let a = handle.core.register_conn(Sink::Line(tx_a));
    let b = handle.core.register_conn(Sink::Line(tx_b));
    assert_ne!(a.identity(), b.identity(), "each connection gets its own DRR queue");
    // And an explicit client_id overrides the connection identity — the
    // submit path is exercised end-to-end by the transport e2e tests.
    handle.stop();
}
