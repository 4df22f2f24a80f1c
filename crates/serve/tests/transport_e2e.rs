//! End-to-end tests of the reactor transport: connection scale (≥ 1000 idle
//! connections on one reactor thread, a 256→10k multi-reactor sweep in the
//! release-mode smoke), accept-and-hand-off distribution across reactors,
//! cross-connection fairness under one shared scheduler, cancel scoping, the
//! non-blocking `Stats` path, framing limits and graceful shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qsync_cluster::topology::ClusterSpec;
use qsync_serve::{
    ClusterDelta, DeltaRequest, ModelSpec, PlanEngine, PlanOutcome, PlanRequest, PlanServer,
    Priority, ServerCommand, ServerReply, TransportConfig,
};

mod common;
use common::{Client, TestServer};

fn mlp() -> ModelSpec {
    ModelSpec::SmallMlp { batch: 16, in_features: 32, hidden: 64, classes: 8 }
}

/// A heavier cold plan (a few ms even in release builds) for occupying the
/// worker pool deterministically.
fn resnet_variant(id: u64, batch: usize, cluster: &ClusterSpec) -> PlanRequest {
    PlanRequest::new(id, ModelSpec::Resnet50 { batch, image: 32 }, cluster.clone())
}

/// The acceptance-scale test: hold 1000 concurrent idle TCP connections on
/// the reactor, then complete a plan round-trip on every one of them, with
/// replies routed back to the right connection.
#[test]
fn thousand_idle_connections_round_trip() {
    const CONNS: usize = 1000;
    const WRITERS: usize = 8;
    // 1000 client sockets + 1000 accepted sockets + listener/epoll slack.
    let limit = qsync_serve::transport::ensure_fd_limit((CONNS * 2 + 128) as u64)
        .expect("raise fd limit");
    assert!(limit >= (CONNS * 2 + 128) as u64, "fd limit too low for the test: {limit}");

    let engine = PlanEngine::shared();
    let cluster = ClusterSpec::hybrid_small();
    let warm = PlanRequest::new(0, mlp(), cluster.clone());
    engine.plan(&warm).expect("pre-warm the cache");
    let server = TestServer::spawn(PlanServer::with_engine(Arc::clone(&engine), 4));

    // Phase 1: connect everything and hold the sockets open concurrently.
    let mut clients: Vec<Client> = (0..CONNS).map(|_| server.client()).collect();

    // Phase 2: with all 1000 still connected, one round-trip per connection.
    let done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (w, chunk) in clients.chunks_mut(CONNS.div_ceil(WRITERS)).enumerate() {
            let cluster = cluster.clone();
            let done = &done;
            scope.spawn(move || {
                for (i, client) in chunk.iter_mut().enumerate() {
                    let id = (w * 10_000 + i) as u64;
                    client.send(&ServerCommand::Plan(PlanRequest::new(id, mlp(), cluster.clone())));
                    match client.recv() {
                        ServerReply::Plan(p) => {
                            assert_eq!(p.id, id, "reply routed to the wrong connection");
                            assert_eq!(p.outcome, PlanOutcome::CacheHit);
                        }
                        other => panic!("expected plan reply, got {other:?}"),
                    }
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(done.load(std::sync::atomic::Ordering::Relaxed), CONNS);
    assert!(engine.cache().stats().hits >= CONNS as u64, "every round-trip was a cache hit");
    drop(clients);
    server.stop();
}

/// Multi-reactor hand-off: with N reactors, accepted connections are spread
/// off the acceptor (least-loaded by default, which deals evenly from an
/// empty ring), every round-trip still routes its reply to the submitting
/// connection, and the per-reactor gauges account for every open
/// connection — no reactor is left idle.
#[test]
fn multi_reactor_hand_off_distributes_and_routes_replies() {
    const CONNS: usize = 60;
    const REACTORS: usize = 3;
    let engine = PlanEngine::shared();
    let cluster = ClusterSpec::hybrid_small();
    engine.plan(&PlanRequest::new(0, mlp(), cluster.clone())).expect("pre-warm");
    let transport = TransportConfig { reactors: REACTORS, ..TransportConfig::default() };
    let server = TestServer::spawn(
        PlanServer::with_engine(Arc::clone(&engine), 2).with_transport(transport),
    );

    let mut clients: Vec<Client> = (0..CONNS).map(|_| server.client()).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let id = 1000 + i as u64;
        client.send(&ServerCommand::Plan(PlanRequest::new(id, mlp(), cluster.clone())));
        match client.recv() {
            ServerReply::Plan(p) => {
                assert_eq!(p.id, id, "reply routed to the wrong connection");
                assert_eq!(p.outcome, PlanOutcome::CacheHit);
            }
            other => panic!("expected plan reply, got {other:?}"),
        }
    }

    // All connections still open: the per-reactor gauges must cover every
    // one of them, spread evenly (from an empty ring the least-loaded
    // hand-off deals like a round robin).
    let mut probe = server.client();
    probe.send(&ServerCommand::Metrics { id: 1 });
    let ServerReply::Metrics { metrics, .. } = probe.recv() else { panic!("metrics reply") };
    let per_reactor: Vec<i64> = (0..REACTORS)
        .map(|r| {
            let name = format!("qsync_transport_reactor_conns{{reactor=\"{r}\"}}");
            metrics
                .gauges
                .iter()
                .find(|g| g.name == name)
                .map(|g| g.value)
                .unwrap_or_else(|| panic!("gauge {name} missing"))
        })
        .collect();
    let open: i64 = per_reactor.iter().sum();
    assert_eq!(open, CONNS as i64 + 1, "gauges must cover every open connection + the probe");
    for (reactor, &count) in per_reactor.iter().enumerate() {
        assert!(
            count >= (CONNS / REACTORS) as i64,
            "reactor {reactor} holds {count} of {CONNS} connections; distribution {per_reactor:?}"
        );
    }
    let handoffs = metrics
        .counters
        .iter()
        .find(|c| c.name == "qsync_transport_reactor_handoffs_total")
        .map(|c| c.value)
        .unwrap_or(0);
    assert!(
        handoffs >= (CONNS - CONNS / REACTORS) as u64,
        "acceptor must hand off all but its own share (saw {handoffs})"
    );

    drop(clients);
    drop(probe);
    server.stop();
}

/// Least-loaded hand-off rebalances after churn: when every connection on
/// one reactor closes, the next accepted connections all refill that
/// drained reactor instead of being dealt blindly across the ring (a round
/// robin would leave it under-filled — its cursor ignores load).
#[test]
fn least_loaded_handoff_refills_drained_reactor_after_churn() {
    const REACTORS: usize = 3;
    let engine = PlanEngine::shared();
    let cluster = ClusterSpec::hybrid_small();
    engine.plan(&PlanRequest::new(0, mlp(), cluster.clone())).expect("pre-warm");
    let transport = TransportConfig { reactors: REACTORS, ..TransportConfig::default() };
    let server = TestServer::spawn(
        PlanServer::with_engine(Arc::clone(&engine), 2).with_transport(transport),
    );

    let per_reactor = |probe: &mut Client| -> Vec<i64> {
        probe.send(&ServerCommand::Metrics { id: 1 });
        let ServerReply::Metrics { metrics, .. } = probe.recv() else { panic!("metrics reply") };
        (0..REACTORS)
            .map(|r| {
                let name = format!("qsync_transport_reactor_conns{{reactor=\"{r}\"}}");
                metrics.gauges.iter().find(|g| g.name == name).map(|g| g.value).unwrap_or(0)
            })
            .collect()
    };
    // Round-trip straight after connecting so each connection is registered
    // (its gauge counted) before the next accept picks a target: placement
    // is then deterministic — all loads tied resolves to the lowest index.
    let connect_registered = |server: &TestServer, id: u64| -> Client {
        let mut client = server.client();
        client.send(&ServerCommand::Plan(PlanRequest::new(id, mlp(), cluster.clone())));
        match client.recv() {
            ServerReply::Plan(p) => assert_eq!(p.id, id),
            other => panic!("expected plan reply, got {other:?}"),
        }
        client
    };

    // Probe lands on reactor 0; eight clients then deal 1,2,0,1,2,0,1,2 —
    // reactor 1 holds exactly clients 0, 3 and 6.
    let mut probe = server.client();
    assert_eq!(per_reactor(&mut probe).iter().sum::<i64>(), 1, "probe registered");
    let mut clients: Vec<Option<Client>> =
        (0..8).map(|i| Some(connect_registered(&server, 100 + i))).collect();
    assert_eq!(per_reactor(&mut probe), vec![3, 3, 3], "even deal from an empty ring");

    // Close everything on reactor 1 and wait for the reaps.
    for i in [0usize, 3, 6] {
        clients[i] = None;
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let drained = loop {
        let counts = per_reactor(&mut probe);
        if counts.iter().sum::<i64>() == 6 {
            break counts;
        }
        assert!(Instant::now() < deadline, "closed connections never reaped: {counts:?}");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(drained, vec![3, 0, 3], "reactor 1 drained");

    // Three new connections must all refill reactor 1.
    let refill: Vec<Client> = (0..3).map(|i| connect_registered(&server, 200 + i)).collect();
    assert_eq!(
        per_reactor(&mut probe),
        vec![3, 3, 3],
        "least-loaded hand-off must refill the drained reactor"
    );

    drop(refill);
    drop(clients);
    drop(probe);
    server.stop();
}

/// The 10k-connection release-mode smoke: sweep 256 → 10240 connections on a
/// multi-reactor server; at every rung, hold all sockets open concurrently
/// and complete eight rounds of one reply-routed round-trip per connection,
/// then check that the per-reactor connection gauges cover the rung. The
/// 1024 rung's round-trip rate must stay within 10% of the 256 rung's
/// unless reactors outnumber cores. On a multi-core, uncontended runner the
/// p99 round-trip latency must stay flat (within 10× of the 256-conn rung);
/// on a contended runner (fewer than 4 cores) the latency gate is skipped.
/// The top rung adapts to the process fd budget — the sweep never silently
/// drops below 4096.
#[test]
#[ignore = "release-mode scale smoke (256→10k sweep); run explicitly — see ci.yml"]
fn ten_thousand_connection_sweep_keeps_p99_flat() {
    const TARGET: usize = 10_240;
    const WRITERS: usize = 16;
    const ROUNDS: usize = 8;
    let limit = qsync_serve::transport::ensure_fd_limit((TARGET * 3 + 512) as u64)
        .expect("raise fd limit");
    // Three fds per connection — the test client's socket, its dup'd
    // buffered-reader handle, and the server's accepted socket — plus
    // listener/epoll slack.
    let max_conns = TARGET.min((limit.saturating_sub(512) / 3) as usize);
    assert!(max_conns >= 4096, "fd budget too small for a scale smoke: limit {limit}");
    let mut sweep: Vec<usize> = [256usize, 1024, 4096, TARGET]
        .iter()
        .map(|&n| n.min(max_conns))
        .collect();
    sweep.dedup();

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let engine = PlanEngine::shared();
    let cluster = ClusterSpec::hybrid_small();
    engine.plan(&PlanRequest::new(0, mlp(), cluster.clone())).expect("pre-warm");
    let reactors = cores.clamp(2, 4);
    let transport = TransportConfig { reactors, ..TransportConfig::default() };
    let server = TestServer::spawn(
        PlanServer::with_engine(Arc::clone(&engine), 4).with_transport(transport),
    );

    // Waits until the server has reaped the previous rung's sockets (only
    // `slack` others may remain open). Client drops close asynchronously —
    // without this barrier, rung N+1's connect flood races rung N's
    // server-side EOF handling for the shared fd budget.
    let wait_for_reap = |probe: &mut Client, slack: i64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            probe.send(&ServerCommand::Metrics { id: 7 });
            let ServerReply::Metrics { metrics, .. } = probe.recv() else {
                panic!("metrics reply")
            };
            let open = metrics
                .gauges
                .iter()
                .find(|g| g.name == "qsync_transport_conns_open")
                .map(|g| g.value)
                .unwrap_or(0);
            if open <= slack + 1 {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "server still holds {open} connections long after the rung dropped its clients"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let mut probe = server.client();
    let mut p99_us: Vec<(usize, u64)> = Vec::new();
    let mut per_sec_at: Vec<(usize, f64)> = Vec::new();
    for &conns in &sweep {
        wait_for_reap(&mut probe, 0);
        let started = Instant::now();
        let mut clients: Vec<Client> = (0..conns).map(|_| server.client()).collect();
        let connected = started.elapsed();
        // Several rounds of one round-trip per connection, so the rung's
        // rate averages over scheduler noise.
        let latencies = std::sync::Mutex::new(Vec::<u64>::with_capacity(conns * ROUNDS));
        for round in 0..ROUNDS {
            std::thread::scope(|scope| {
                for (w, chunk) in clients.chunks_mut(conns.div_ceil(WRITERS)).enumerate() {
                    let cluster = cluster.clone();
                    let latencies = &latencies;
                    scope.spawn(move || {
                        let mut mine = Vec::with_capacity(chunk.len());
                        for (i, client) in chunk.iter_mut().enumerate() {
                            let id = (round * 10_000_000 + w * 100_000 + i) as u64;
                            let begin = Instant::now();
                            client.send(&ServerCommand::Plan(PlanRequest::new(
                                id,
                                mlp(),
                                cluster.clone(),
                            )));
                            match client.recv() {
                                ServerReply::Plan(p) => {
                                    assert_eq!(p.id, id, "reply routed to the wrong connection");
                                    assert_eq!(p.outcome, PlanOutcome::CacheHit);
                                }
                                other => panic!("expected plan reply, got {other:?}"),
                            }
                            mine.push(begin.elapsed().as_micros() as u64);
                        }
                        latencies.lock().unwrap().extend(mine);
                    });
                }
            });
        }
        let round_trips = started.elapsed() - connected;
        let mut latencies = latencies.into_inner().unwrap();
        assert_eq!(latencies.len(), conns * ROUNDS, "every connection completed every round");
        latencies.sort_unstable();
        let p99 = latencies[(latencies.len() - 1) * 99 / 100];
        let per_sec = (conns * ROUNDS) as f64 / round_trips.as_secs_f64();

        // With the rung's clients still open, the per-reactor gauges must
        // name every reactor and account for every connection (plus the
        // probe, held open across the whole sweep).
        probe.send(&ServerCommand::Metrics { id: 8 });
        let ServerReply::Metrics { metrics, .. } = probe.recv() else { panic!("metrics reply") };
        let per_reactor: Vec<i64> = metrics
            .gauges
            .iter()
            .filter(|g| g.name.starts_with("qsync_transport_reactor_conns{"))
            .map(|g| g.value)
            .collect();
        assert_eq!(per_reactor.len(), reactors, "one gauge per reactor: {per_reactor:?}");
        assert_eq!(
            per_reactor.iter().sum::<i64>(),
            conns as i64 + 1,
            "reactor gauges do not cover the {conns}-connection rung: {per_reactor:?}"
        );
        eprintln!(
            "{conns} conns: connect {connected:?}, round-trips {round_trips:?} \
             ({per_sec:.0}/s), p99 {p99} us, per reactor {per_reactor:?}"
        );
        p99_us.push((conns, p99));
        per_sec_at.push((conns, per_sec));
        drop(clients);
    }

    // Sharded reactors must not collapse under connection count: the 1024
    // rung keeps at least 90% of the 256 rung's round-trip rate, unless
    // reactor threads outnumber cores (then the ratio is scheduler noise).
    if reactors <= cores {
        let rate = |n: usize| per_sec_at.iter().find(|&&(c, _)| c == n).map(|&(_, r)| r).unwrap();
        let ratio = rate(1024) / rate(256);
        assert!(ratio >= 0.9, "1024-connection throughput fell to {ratio:.2}x of the 256 rung");
    } else {
        eprintln!("contended runner ({reactors} reactors > {cores} cores): skipping the throughput gate");
    }

    if cores >= 4 {
        let (base_conns, base) = p99_us[0];
        let &(top_conns, top) = p99_us.last().unwrap();
        // Flatness gate: scaling connections 40× may not blow up tail
        // latency. The 2 ms absolute floor keeps micro-latency jitter on
        // fast machines from tripping a ratio that means nothing there.
        assert!(
            top <= base.saturating_mul(10).max(2_000),
            "p99 regressed across the sweep: {base} us at {base_conns} conns -> \
             {top} us at {top_conns} conns"
        );
    } else {
        eprintln!("contended runner ({cores} cores): skipping the p99 flatness gate");
    }
    drop(probe);
    server.stop();
}

/// PR 3's explicit follow-up, now structural: two TCP connections share one
/// scheduler, so a background-class flood from one client cannot starve
/// another client's interactive requests.
#[test]
fn background_flood_does_not_starve_interactive_client() {
    const FLOOD: u64 = 120;
    let engine = PlanEngine::shared();
    let cluster = ClusterSpec::hybrid_small();
    let server = TestServer::spawn(PlanServer::with_engine(Arc::clone(&engine), 2));

    // Client A: pipeline a flood of background plans without reading a
    // single reply. Each carries a unique throughput tolerance, so every one
    // is a distinct cache key — 120 real cold resnet plans of queued work.
    let mut flood = server.client();
    let mut batch = String::new();
    for i in 0..FLOOD {
        let mut request = resnet_variant(i, 2, &cluster);
        request.throughput_tolerance = Some(0.1 + i as f64 * 1e-6);
        request.priority = Some(Priority::Background);
        request.client_id = Some("flood".into());
        batch.push_str(&serde_json::to_string(&ServerCommand::Plan(request)).unwrap());
        batch.push('\n');
    }
    flood.send_bytes(batch.as_bytes()).expect("flood written");

    // Client B: wait until the shared scheduler has admitted the whole flood
    // (proving B's stats see A's submissions — one scheduler, not one per
    // connection) while it is still far from drained.
    let mut interactive = server.client();
    let deadline = Instant::now() + Duration::from_secs(60);
    let backlog = loop {
        interactive.send(&ServerCommand::Stats { id: 9000 });
        let ServerReply::Stats { sched: Some(sched), .. } = interactive.recv() else {
            panic!("stats reply")
        };
        if sched.background.submitted == FLOOD {
            break sched.background;
        }
        assert!(Instant::now() < deadline, "flood was never admitted: {sched:?}");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        backlog.completed < FLOOD,
        "flood drained before the interactive phase began; grow FLOOD"
    );

    // Client B again: interactive requests must overtake the queued flood.
    let mut latencies_us: Vec<u64> = Vec::new();
    for i in 0..20u64 {
        let started = Instant::now();
        interactive.send(&ServerCommand::Plan(PlanRequest::new(8000 + i, mlp(), cluster.clone())));
        match interactive.recv() {
            ServerReply::Plan(p) => assert_eq!(p.id, 8000 + i),
            other => panic!("expected plan reply, got {other:?}"),
        }
        latencies_us.push(started.elapsed().as_micros() as u64);
        if i == 0 {
            // Non-starvation, structurally: the first interactive round-trip
            // completed while the flood (hundreds of milliseconds of queued
            // cold planning) was still draining — under the old
            // per-connection FIFO it would have waited out the whole flood.
            interactive.send(&ServerCommand::Stats { id: 9001 });
            let ServerReply::Stats { sched: Some(sched), .. } = interactive.recv() else {
                panic!("stats reply")
            };
            assert_eq!(sched.background.submitted, FLOOD);
            assert!(
                sched.background.completed < FLOOD,
                "the first interactive request should overtake the {FLOOD}-plan flood \
                 (completed {} of {FLOOD})",
                sched.background.completed
            );
        }
    }
    latencies_us.sort_unstable();
    let p99 = latencies_us[(latencies_us.len() - 1) * 99 / 100];

    interactive.send(&ServerCommand::Stats { id: 9002 });
    let ServerReply::Stats { sched: Some(sched), .. } = interactive.recv() else {
        panic!("stats reply")
    };
    assert_eq!(sched.background.submitted, FLOOD, "one scheduler serves both connections");
    // `dispatched` is ordered before each reply; `completed` (counted at
    // dispatch drop) may lag the last reply by a hair.
    assert!(sched.interactive.dispatched >= 20, "interactive class served B's requests");
    eprintln!(
        "interactive p99 {p99} us with {} of {FLOOD} background jobs still pending",
        FLOOD - sched.background.completed.min(FLOOD)
    );
    // Sanity ceiling (generous for debug builds + CI): an interactive
    // request must never wait out the whole flood.
    assert!(p99 < 10_000_000, "interactive p99 {p99} us looks starved");
}

/// `Cancel` acts on the submitting connection's queue only: another
/// connection naming the same plan id gets `cancelled: false`, the owner
/// gets `cancelled: true` and the queued plan produces no reply.
#[test]
fn cancel_is_scoped_to_the_submitting_connection() {
    let cluster = ClusterSpec::cluster_a(1, 1);
    let server = TestServer::spawn(PlanServer::new(1)); // one worker: plans queue
    let mut owner = server.client();
    let mut other = server.client();

    // Occupy the single worker with a run of cold plans, then queue the
    // cancel target behind them (same connection ⇒ same DRR queue ⇒ FIFO).
    for i in 0..10u64 {
        owner.send(&ServerCommand::Plan(resnet_variant(100 + i, 1 + i as usize, &cluster)));
    }
    owner.send(&ServerCommand::Plan(PlanRequest::new(7, mlp(), cluster.clone())));

    // Another connection cannot reach it.
    other.send(&ServerCommand::Cancel { id: 1, plan_id: 7 });
    assert_eq!(
        other.recv(),
        ServerReply::Cancelled { id: 1, plan_id: 7, cancelled: false },
        "a plan queued by another connection must be out of reach"
    );

    // The owner can.
    owner.send(&ServerCommand::Cancel { id: 2, plan_id: 7 });
    let mut cancelled = None;
    let mut plan_ids = Vec::new();
    for _ in 0..11 {
        match owner.recv() {
            ServerReply::Cancelled { id: 2, plan_id: 7, cancelled: c } => cancelled = Some(c),
            ServerReply::Plan(p) => plan_ids.push(p.id),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(cancelled, Some(true), "the owner's cancel removes the queued plan");
    plan_ids.sort_unstable();
    assert_eq!(plan_ids, (100..110).collect::<Vec<u64>>(), "the cancelled plan never ran");

    // A cancel for an already-answered plan reports false (same connection).
    owner.send(&ServerCommand::Cancel { id: 3, plan_id: 100 });
    assert_eq!(
        owner.recv(),
        ServerReply::Cancelled { id: 3, plan_id: 100, cancelled: false }
    );
    server.stop();
}

/// The satellite fix, pinned: a `Stats` read taken while a delta is
/// quiescing the scheduler answers immediately from counters instead of
/// blocking behind the barrier.
#[test]
fn stats_mid_delta_quiesce_answers_immediately() {
    let cluster = ClusterSpec::cluster_a(1, 1);
    let engine = PlanEngine::shared();
    let server = TestServer::spawn(PlanServer::with_engine(Arc::clone(&engine), 1));
    let mut client = server.client();

    // One batch write, processed in order by the reactor: 12 cold plans fill
    // the single worker's queue, the delta starts quiescing behind them, the
    // stats read lands while that barrier is still pending.
    const PLANS: u64 = 12;
    let mut batch = String::new();
    for i in 0..PLANS {
        let line = serde_json::to_string(&ServerCommand::Plan(resnet_variant(
            i,
            1 + i as usize,
            &cluster,
        )))
        .unwrap();
        batch.push_str(&line);
        batch.push('\n');
    }
    let rank = cluster.inference_ranks()[0];
    let delta = DeltaRequest::new(
        500,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction: 0.5, compute_fraction: 0.9 },
    );
    batch.push_str(&serde_json::to_string(&ServerCommand::Delta(delta)).unwrap());
    batch.push('\n');
    batch.push_str(&serde_json::to_string(&ServerCommand::Stats { id: 600 }).unwrap());
    batch.push('\n');
    client.send_bytes(batch.as_bytes()).expect("batch written");

    let mut stats_pos = None;
    let mut delta_pos = None;
    for pos in 0..(PLANS as usize + 2) {
        match client.recv() {
            ServerReply::Stats { id: 600, .. } => stats_pos = Some(pos),
            ServerReply::Delta(d) => {
                assert_eq!(d.id, 500);
                assert_eq!(
                    d.invalidated, PLANS as usize,
                    "the barrier saw every plan submitted before the delta"
                );
                delta_pos = Some(pos);
            }
            ServerReply::Plan(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let (stats_pos, delta_pos) =
        (stats_pos.expect("stats reply arrived"), delta_pos.expect("delta reply arrived"));
    assert!(
        stats_pos < delta_pos,
        "stats (reply #{stats_pos}) must not block behind the delta barrier (reply #{delta_pos})"
    );
    server.stop();
}

/// A line that exceeds the configured cap draws an `Error` reply and a
/// close — wire input cannot buffer unboundedly — and the server keeps
/// serving new connections.
#[test]
fn oversized_line_gets_an_error_and_a_close() {
    let transport = TransportConfig { max_line_bytes: 4096, ..TransportConfig::default() };
    let server = TestServer::spawn(PlanServer::new(1).with_transport(transport));
    let mut client = server.client();
    client.send_bytes(&[b'x'; 16 * 1024]).expect("oversized write"); // no newline
    match client.try_recv() {
        Some(ServerReply::Error { id: None, message }) => {
            assert!(message.contains("exceeds"), "unexpected error: {message}");
        }
        other => panic!("expected oversize error, got {other:?}"),
    }
    assert!(client.try_recv().is_none(), "the connection is closed after the error");

    // The reactor survives: a fresh connection round-trips.
    let mut fresh = server.client();
    fresh.send(&ServerCommand::Stats { id: 1 });
    assert!(matches!(fresh.recv(), ServerReply::Stats { id: 1, .. }));
    server.stop();
}

/// Graceful shutdown drains in-flight planning work: replies accepted before
/// the signal are flushed before the connection closes.
#[test]
fn graceful_shutdown_flushes_pending_replies() {
    let cluster = ClusterSpec::cluster_a(1, 1);
    let server = TestServer::spawn(PlanServer::new(1));
    let mut client = server.client();
    client.send(&ServerCommand::Plan(resnet_variant(42, 2, &cluster)));
    // Sync point: once the stats reply arrives, the plan line has certainly
    // been read and submitted.
    client.send(&ServerCommand::Stats { id: 1 });
    assert!(matches!(client.recv(), ServerReply::Stats { id: 1, .. }));

    server.stop(); // blocks until drained: the plan reply must be flushed
    match client.recv() {
        ServerReply::Plan(p) => assert_eq!(p.id, 42),
        other => panic!("expected the in-flight plan reply, got {other:?}"),
    }
    assert!(client.try_recv().is_none(), "clean close after the drain");
}
