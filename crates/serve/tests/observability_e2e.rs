//! End-to-end observability: request traces reconstructable over the wire,
//! delta-wave events stamped with their originating trace id, the `Metrics`
//! command reporting every layer in a parseable exposition that matches the
//! documented catalog, and the slow-subscriber path — dropped events
//! counted, surfaced as client-side gaps, and recovered via `Resync`.

use std::time::{Duration, Instant};

use qsync_api::MetricsSnapshot;
use qsync_client::EventItem;
use qsync_cluster::topology::ClusterSpec;
use qsync_serve::{
    ClusterDelta, DeltaRequest, ModelSpec, PlanRequest, PlanServer, ServerEvent, TransportConfig,
};

mod common;
use common::TestServer;

fn mlp_request(id: u64, cluster: &ClusterSpec) -> PlanRequest {
    PlanRequest::new(
        id,
        ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
        cluster.clone(),
    )
}

fn degrade(cluster: &ClusterSpec, memory_fraction: f64) -> DeltaRequest {
    let rank = cluster.inference_ranks()[0];
    DeltaRequest::new(
        0,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction, compute_fraction: 0.95 },
    )
}

/// Poll `Trace` until the trace contains `stage` (the final span of a
/// request lands moments after its reply line, so an immediate query can
/// race it) or the deadline passes.
fn wait_for_stage(mux: &qsync_client::MuxClient, trace_id: u64, stage: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let spans = mux.trace(trace_id, None).expect("trace query");
        if spans.iter().any(|s| s.stage == stage) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "trace {trace_id} never grew a {stage:?} span; have {:?}",
            spans.iter().map(|s| s.stage.clone()).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn trace_reconstructs_the_request_lifecycle_end_to_end() {
    let cluster = ClusterSpec::hybrid_small();
    let server = TestServer::spawn(PlanServer::new(2));
    let mux = server.mux_client();

    // Cold request: the server mints the trace id and echoes it.
    let cold = mux.plan(mlp_request(0, &cluster)).expect("cold plan");
    let cold_tid = cold.trace_id.expect("server minted a trace id");
    assert_ne!(cold_tid, 0);
    wait_for_stage(&mux, cold_tid, "reply_write");
    let spans = mux.trace(cold_tid, None).expect("trace query");
    let stages: Vec<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
    for expected in ["parse", "dispatch", "cold_plan", "reply_write"] {
        assert!(stages.contains(&expected), "missing {expected:?} span in {stages:?}");
    }
    // Spans arrive oldest-first and every one carries the same trace id.
    assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us), "spans out of order");
    assert!(spans.iter().all(|s| s.trace_id == cold_tid));
    let cold_span = spans.iter().find(|s| s.stage == "cold_plan").expect("cold_plan span");
    assert_eq!(cold_span.detail, cold.key, "the planning span names the cache key");

    // Hit request with a caller-chosen trace id: respected, not re-minted.
    let mut request = mlp_request(0, &cluster);
    request.trace_id = Some(424_242);
    let hit = mux.plan(request).expect("cache hit");
    assert_eq!(hit.trace_id, Some(424_242));
    wait_for_stage(&mux, 424_242, "reply_write");
    let spans = mux.trace(424_242, None).expect("trace query");
    let stages: Vec<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
    for expected in ["parse", "dispatch", "cache_hit", "reply_write"] {
        assert!(stages.contains(&expected), "missing {expected:?} span in {stages:?}");
    }

    server.stop();
}

#[test]
fn delta_wave_events_carry_the_originating_trace_id() {
    let cluster = ClusterSpec::hybrid_small();
    let server = TestServer::spawn(PlanServer::new(2));
    let watcher = server.mux_client();
    let actor = server.mux_client();

    actor.plan(mlp_request(0, &cluster)).expect("populate the cache");
    let events = watcher.subscribe().expect("subscribe");

    let mut delta = degrade(&cluster, 0.5);
    delta.trace_id = Some(777);
    let outcome = actor.delta(delta).expect("delta applies");
    assert_eq!(outcome.trace_id, Some(777), "the delta reply echoes its trace id");

    let mut kinds = Vec::new();
    while kinds.len() < 3 {
        let item = events.next_timeout(Duration::from_secs(30)).expect("wave event");
        let EventItem::Event { event, .. } = item else {
            panic!("no events may drop in this test, got {item:?}")
        };
        assert_eq!(event.trace_id(), 777, "event lost its originating trace id: {event:?}");
        kinds.push(match event {
            ServerEvent::CacheInvalidated { .. } => "invalidated",
            ServerEvent::Replanned { .. } => "replanned",
            ServerEvent::DeltaApplied { .. } => "applied",
            ServerEvent::PlanReady { .. } => "ready",
        });
    }
    assert_eq!(kinds, ["invalidated", "replanned", "applied"]);

    server.stop();
}

/// One cold plan, one cache hit and one delta wave (one warm re-plan) on a
/// live server with an event subscriber attached, then its `Metrics`
/// snapshot: transport, scheduler, engine, cache, deltas, events and the
/// pool bridge have all been exercised.
fn every_layer_snapshot() -> MetricsSnapshot {
    let cluster = ClusterSpec::hybrid_small();
    let server = TestServer::spawn(PlanServer::new(2));
    let mux = server.mux_client();
    let watcher = server.mux_client();
    let _events = watcher.subscribe().expect("subscribe");

    mux.plan(mlp_request(0, &cluster)).expect("cold");
    mux.plan(mlp_request(0, &cluster)).expect("hit");
    mux.delta(degrade(&cluster, 0.5)).expect("delta");

    let metrics = mux.metrics().expect("metrics");
    server.stop();
    metrics
}

#[test]
fn metrics_command_reports_every_layer() {
    let metrics = every_layer_snapshot();
    // Transport layer.
    assert!(metrics.counter("qsync_transport_accepts_total").unwrap() >= 1);
    assert!(metrics.counter("qsync_transport_bytes_in_total").unwrap() > 0);
    assert!(metrics.histogram("qsync_transport_frame_bytes").unwrap().count >= 3);
    assert!(metrics.gauge("qsync_transport_conns_open").unwrap() >= 1);
    // Scheduler layer: dispatch latency plus per-class derived counters.
    assert!(metrics.histogram("qsync_sched_dispatch_wait_ms").unwrap().count >= 2);
    assert!(metrics.counter("qsync_sched_dispatched{class=\"interactive\"}").is_some());
    assert!(metrics.gauge("qsync_sched_queue_depth{class=\"batch\"}").is_some());
    // Engine / cache layer.
    assert_eq!(metrics.counter("qsync_cache_hits_total"), Some(1));
    assert_eq!(metrics.counter("qsync_cache_misses_total"), Some(1));
    assert_eq!(metrics.histogram("qsync_plan_latency_us{kind=\"cold\"}").unwrap().count, 1);
    assert_eq!(metrics.histogram("qsync_plan_latency_us{kind=\"hit\"}").unwrap().count, 1);
    let cold = metrics.histogram("qsync_plan_latency_us{kind=\"cold\"}").unwrap();
    assert!(cold.p50() > 0, "cold latency histogram records real time");
    // Delta pipeline.
    assert_eq!(metrics.counter("qsync_delta_waves_total"), Some(1));
    assert_eq!(metrics.histogram("qsync_delta_wave_width").unwrap().count, 1);
    assert_eq!(metrics.histogram("qsync_plan_latency_us{kind=\"warm\"}").unwrap().count, 1);
    assert!(metrics.histogram("qsync_delta_fanout_us").unwrap().count >= 1);
    for kind in ["cold", "warm", "hit"] {
        let h = metrics.histogram(&format!("qsync_plan_latency_us{{kind=\"{kind}\"}}")).unwrap();
        assert!(
            h.p50() <= h.p90() && h.p90() <= h.p99(),
            "{kind} latency percentiles not monotone: p50 {} p90 {} p99 {}",
            h.p50(),
            h.p90(),
            h.p99()
        );
    }
    // And the whole snapshot renders as parseable text exposition.
    let text = metrics.render_prometheus();
    assert!(text.contains("# TYPE qsync_plan_latency_us histogram"));
    assert!(text.contains("qsync_cache_hits_total 1"));
    validate_exposition(&text);
}

/// Validate the Prometheus text exposition line-by-line (a scrape target
/// that doesn't parse is worse than none).
fn validate_exposition(text: &str) {
    let mut samples = 0;
    let mut histograms: Vec<&str> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("# TYPE carries a metric name");
            let kind = parts.next().expect("# TYPE carries a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown exposition kind {kind:?} in {line:?}"
            );
            if kind == "histogram" {
                histograms.push(name);
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line has no value separator: {line:?}");
        });
        value.parse::<f64>().unwrap_or_else(|e| {
            panic!("sample value does not parse ({e}): {line:?}");
        });
        assert!(!series.is_empty(), "empty series name: {line:?}");
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unterminated label block: {line:?}");
            for label in series[open + 1..series.len() - 1].split(',') {
                let (key, val) = label
                    .split_once('=')
                    .unwrap_or_else(|| panic!("label without '=' in {line:?}"));
                assert!(!key.is_empty() && val.starts_with('"') && val.ends_with('"'),
                    "malformed label {label:?} in {line:?}");
            }
        }
        samples += 1;
    }
    for base in histograms {
        for suffix in ["_bucket", "_sum", "_count"] {
            assert!(
                text.contains(&format!("{base}{suffix}")),
                "histogram {base} is missing its {suffix} series"
            );
        }
        assert!(
            text.contains("le=\"+Inf\""),
            "histogram {base} exposition lacks a +Inf bucket"
        );
    }
    assert!(samples > 0, "exposition rendered no samples");
}

/// The metric catalog in `docs/OBSERVABILITY.md` and the live exposition
/// name the same metrics. A backticked `qsync_…` name in a catalog table
/// row is one name; `{a,b}` brace groups expand to one name per
/// alternative; a `{label="…"}` block names a label family that any label
/// value satisfies.
#[test]
fn metric_catalog_matches_the_exposition() {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let catalog = doc
        .split("## Metric catalog")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("the doc has a metric catalog section");
    let mut documented: Vec<String> = Vec::new();
    for row in catalog.lines().filter(|l| l.starts_with('|')) {
        for name in row.split('`').skip(1).step_by(2).filter(|s| s.starts_with("qsync_")) {
            documented.extend(expand_braces(name));
        }
    }

    let metrics = every_layer_snapshot();
    let exposed: Vec<&str> = metrics
        .counters
        .iter()
        .map(|c| c.name.as_str())
        .chain(metrics.gauges.iter().map(|g| g.name.as_str()))
        .chain(metrics.histograms.iter().map(|h| h.name.as_str()))
        .collect();

    // A documented family `base{key="…"}` matches `base{key="<anything>"}`.
    let matches = |doc_name: &str, name: &str| match doc_name.strip_suffix("…\"}") {
        Some(prefix) => name
            .strip_prefix(prefix)
            .and_then(|value| value.strip_suffix("\"}"))
            .is_some_and(|value| !value.contains('"')),
        None => doc_name == name,
    };
    let only_in_doc: Vec<&String> =
        documented.iter().filter(|d| !exposed.iter().any(|e| matches(d, e))).collect();
    let only_exposed: Vec<&&str> =
        exposed.iter().filter(|e| !documented.iter().any(|d| matches(d, e))).collect();
    assert!(
        only_in_doc.is_empty() && only_exposed.is_empty(),
        "metric catalog drift — only in docs/OBSERVABILITY.md: {only_in_doc:?}; \
         only in the exposition: {only_exposed:?}"
    );
}

/// Expand every `{a,b,…}` brace group of a catalog name (a `{key="…"}`
/// label block is not a brace group and is kept as written).
fn expand_braces(name: &str) -> Vec<String> {
    let group = name.match_indices('{').map(|(i, _)| i).find_map(|open| {
        let close = open + name[open..].find('}')?;
        (!name[open..close].contains('=')).then_some((open, close))
    });
    let Some((open, close)) = group else { return vec![name.to_string()] };
    name[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &name[..open], &name[close + 1..])))
        .collect()
}

#[test]
fn slow_subscriber_drops_are_counted_surfaced_as_gaps_and_resynced() {
    let cluster = ClusterSpec::hybrid_small();
    // A zero event-outbox cap sheds any event broadcast while the previous
    // one is still un-flushed — with each wave emitting several events
    // back-to-back from the delta thread, drops are guaranteed under
    // load while replies stay lossless.
    let server = TestServer::spawn(
        PlanServer::new(2)
            .with_transport(TransportConfig { event_outbox_cap: 0, ..TransportConfig::default() }),
    );
    let watcher = server.mux_client();
    let actor = server.mux_client();

    actor.plan(mlp_request(0, &cluster)).expect("populate the cache");
    let events = watcher.subscribe().expect("subscribe");

    // Flood: a chain of 8 degrade waves, each invalidating and re-planning
    // the (single) cached entry, each broadcasting 3 events.
    let mut shape = cluster.clone();
    for i in 0..8 {
        let fraction = 0.9 - 0.05 * i as f64;
        let delta = degrade(&shape, fraction);
        shape = delta.delta.apply(&shape).expect("delta applies to the running shape");
        actor.delta(delta).expect("delta applies");
    }

    // Drain what made it through; gaps surface as explicit items.
    let mut delivered = 0u64;
    let mut missed = 0u64;
    while let Some(item) = events.next_timeout(Duration::from_millis(300)) {
        match item {
            EventItem::Event { .. } => delivered += 1,
            EventItem::Gap { .. } => missed += item.missed(),
        }
    }

    let stats = actor.stats().expect("stats");
    assert_eq!(stats.subscribers.len(), 1, "one subscriber registered");
    let dropped = stats.subscribers[0].dropped;
    assert!(dropped > 0, "the flood must shed events under a zero outbox cap");
    assert!(missed > 0, "shed events must surface as explicit gap items");
    assert!(missed <= dropped, "gaps cannot exceed the server's drop count");

    // Resync: authoritative state, a fresh baseline, and a reset counter.
    let resync = watcher.resync().expect("resync");
    assert_eq!(resync.dropped, dropped, "resync reports (and claims) the dropped count");
    assert_eq!(
        resync.seq,
        delivered + dropped,
        "every broadcast either arrived or was counted dropped"
    );
    assert_eq!(resync.keys.len(), 1, "one entry cached after the degrade chain");
    let after = actor.stats().expect("stats after resync");
    assert_eq!(after.subscribers[0].dropped, 0, "resync resets the dropped counter");

    // The stream resumes against the new baseline: the next wave's events
    // either arrive at (or past) the baseline or raise a gap anchored on it.
    events.reset_baseline(resync.seq);
    actor.delta(degrade(&shape, 0.45)).expect("post-resync delta");
    let item = events.next_timeout(Duration::from_secs(30)).expect("stream resumes");
    match item {
        EventItem::Event { seq, .. } => assert!(seq >= resync.seq),
        EventItem::Gap { expected, got } => {
            assert_eq!(expected, resync.seq);
            assert!(got > expected);
        }
    }

    server.stop();
}
