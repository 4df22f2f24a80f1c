//! The pinned chaos regression corpus.
//!
//! Two kinds of entries:
//!
//! * **Pinned seeds** — generator seeds whose scripts proved interesting
//!   (together they cover every fault kind the DSL can express). Each runs
//!   the full oracle; a failure prints the seed and the exact script.
//! * **Hand-written scripts** — minimal scenarios targeting one fault
//!   interaction each: a mid-frame connection drop while a batch's replies
//!   are in flight, a delta storm coalescing over a populated cache, a
//!   subscriber stalling during wave fan-out (events shed into the counted
//!   drop column), EMFILE at accept, torn single-byte reply writes, and
//!   reader-stall backpressure.
//!
//! The `fresh_seed` test takes its seed from `QSYNC_CHAOS_SEED` (CI passes a
//! random one and echoes it in the log), so every CI run probes one new
//! point of the schedule space on top of the pinned set.

use qsync_lab::fault::{DeltaSpec, FaultAction, FaultPlan, PlanSpec};
use qsync_lab::{check_all, run_plan, run_plan_with};
use qsync_serve::{RateLimitConfig, SimConfig, SimOp, TokenBucketConfig};

/// Seeds pinned after seed sweeps: known-interesting schedules, re-checked
/// forever. Do not rotate them when they fail — fix the bug they found.
const PINNED_SEEDS: [u64; 10] = [11, 13, 16, 20, 26, 39, 50, 52, 53, 54];

/// Every fault kind the generator can express, for the coverage assertion.
const ALL_KINDS: [&str; 6] = [
    "torn-frame",
    "mid-frame-drop",
    "delta-storm",
    "stalled-reader",
    "torn-write",
    "accept-error",
];

fn plan_spec(hidden: u16) -> PlanSpec {
    PlanSpec { hidden, client: None, deadline_ms: None, background: false }
}

fn delta_spec(rank_index: u8, pct: u8) -> DeltaSpec {
    DeltaSpec { rank_index, memory_pct: pct, compute_pct: pct }
}

/// The `(seq, dropped)` carried by the `Resynced` reply answering `id`.
fn resynced(replies: &[serde_json::Value], id: u64) -> Option<(u64, u64)> {
    replies.iter().find_map(|reply| {
        let body = reply.get("Resynced")?;
        (body["id"].as_u64() == Some(id))
            .then(|| (body["seq"].as_u64().unwrap(), body["dropped"].as_u64().unwrap()))
    })
}

/// The `coalesced` group size reported by the `Delta` reply answering `id`.
fn delta_coalesced(replies: &[serde_json::Value], id: u64) -> u64 {
    replies
        .iter()
        .find_map(|reply| {
            let body = reply.get("Delta")?;
            (body["id"].as_u64() == Some(id)).then(|| body["coalesced"].as_u64().unwrap())
        })
        .unwrap_or_else(|| panic!("no Delta reply for id {id}"))
}

#[test]
fn pinned_seeds_uphold_all_invariants() {
    let mut covered: Vec<&'static str> = Vec::new();
    for seed in PINNED_SEEDS {
        let plan = FaultPlan::generate(seed);
        for kind in plan.fault_kinds() {
            if !covered.contains(&kind) {
                covered.push(kind);
            }
        }
        let transcript = run_plan(&plan);
        check_all(&transcript).assert_ok(&transcript);
    }
    for kind in ALL_KINDS {
        assert!(covered.contains(&kind), "pinned corpus no longer covers {kind:?}: {covered:?}");
    }
}

#[test]
fn mid_frame_drop_during_batch_in_flight() {
    use FaultAction::*;
    // Conn 0 stalls its reader, sends a batch (replies pile up server-side),
    // tears a frame and dies mid-frame. The server must clean up without
    // disturbing conn 1, and at-most-once must hold for the dead connection.
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        Connect { conn: 1 },
        Subscribe { conn: 1, id: 1 },
        StallReader { conn: 0, cap: 64 },
        SendBatch {
            conn: 0,
            first_id: 2,
            specs: vec![plan_spec(16), plan_spec(24), plan_spec(32)],
        },
        PartialFrame { conn: 0, id: 10, spec: plan_spec(48), keep_bytes: 30 },
        DropMidFrame { conn: 0 },
        SendPlan { conn: 1, id: 11, spec: plan_spec(16) },
    ]);
    let transcript = run_plan(&plan);
    check_all(&transcript).assert_ok(&transcript);
    assert!(transcript.conns[0].dropped);
    // The survivor got its answer (exactly-once already asserts this; keep
    // an explicit witness here).
    assert!(transcript.conns[1]
        .replies
        .iter()
        .any(|r| r.get("Plan").map(|p| p["id"].as_u64()) == Some(Some(11))));
}

#[test]
fn delta_storm_coalesces_into_one_wave() {
    use FaultAction::*;
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        Connect { conn: 1 },
        Subscribe { conn: 1, id: 1 },
        // Populate the cache so the wave has entries to invalidate and
        // re-plan warm.
        SendBatch {
            conn: 0,
            first_id: 2,
            specs: vec![plan_spec(16), plan_spec(24), plan_spec(32), plan_spec(48)],
        },
        // Three deltas land before the next server step: one coalesced wave.
        DeltaStorm {
            conn: 0,
            first_id: 20,
            specs: vec![delta_spec(0, 90), delta_spec(1, 80), delta_spec(0, 70)],
        },
        // Traffic after the wave plans against the base shape again.
        SendPlan { conn: 1, id: 30, spec: plan_spec(16) },
        Advance { ms: 10 },
    ]);
    let transcript = run_plan(&plan);
    check_all(&transcript).assert_ok(&transcript);
    // Every storm member must report the full group size.
    for id in 20..23u64 {
        let coalesced = delta_coalesced(&transcript.conns[0].replies, id);
        assert_eq!(coalesced, 3, "delta {id} did not coalesce with the storm");
    }
}

#[test]
fn collection_window_gathers_staggered_deltas_into_one_wave() {
    use FaultAction::*;
    // With a 400 ms collection window (virtual time), two deltas 60 ms apart
    // — on different connections — apply as ONE wave once the first has
    // waited out the window. A plan sent mid-window is not held up by the
    // pending wave, and the op log the coherence replay consumes carries the
    // wave exactly as the server grouped it.
    let config = SimConfig {
        delta_window: std::time::Duration::from_millis(400),
        ..SimConfig::default()
    };
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        Connect { conn: 1 },
        Subscribe { conn: 1, id: 1 },
        SendBatch { conn: 0, first_id: 2, specs: vec![plan_spec(16), plan_spec(24)] },
        SendDelta { conn: 0, id: 20, spec: delta_spec(0, 90) },
        Advance { ms: 60 },
        SendDelta { conn: 1, id: 21, spec: delta_spec(1, 80) },
        SendPlan { conn: 1, id: 30, spec: plan_spec(32) },
        Advance { ms: 400 },
    ]);
    let transcript = run_plan_with(config, &plan);
    check_all(&transcript).assert_ok(&transcript);
    for (conn, id) in [(0usize, 20u64), (1, 21)] {
        let coalesced = delta_coalesced(&transcript.conns[conn].replies, id);
        assert_eq!(coalesced, 2, "delta {id} missed the windowed wave");
    }
    let shape: Vec<usize> = transcript
        .ops
        .iter()
        .map(|op| match op {
            SimOp::Plan(_) => 0,
            SimOp::DeltaWave(members) => members.len(),
        })
        .collect();
    assert_eq!(shape, vec![0, 0, 0, 2], "three plans, then one two-member wave");
}

#[test]
fn subscriber_stall_during_wave_fanout_sheds_into_the_drop_column() {
    use FaultAction::*;
    // A tiny event outbox cap plus a stalled subscriber forces fan-out to
    // shed events; the oracle's accounting (delivered + dropped == sequence
    // interval) is the point of the test.
    let mut config = SimConfig::default();
    config.transport.event_outbox_cap = 256;
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        Connect { conn: 1 },
        Subscribe { conn: 1, id: 1 },
        SendBatch {
            conn: 0,
            first_id: 2,
            specs: vec![plan_spec(16), plan_spec(24), plan_spec(32), plan_spec(48)],
        },
        StallReader { conn: 1, cap: 32 },
        DeltaStorm {
            conn: 0,
            first_id: 10,
            specs: vec![delta_spec(0, 95), delta_spec(1, 90), delta_spec(2, 85)],
        },
        SendDelta { conn: 0, id: 20, spec: delta_spec(0, 80) },
        Advance { ms: 50 },
        ResumeReader { conn: 1 },
    ]);
    let transcript = run_plan_with(config, &plan);
    check_all(&transcript).assert_ok(&transcript);
    let conn = &transcript.conns[1];
    let (_, dropped) = resynced(&conn.replies, conn.final_resync_id.unwrap())
        .expect("final resync reply missing");
    assert!(dropped > 0, "expected the stalled subscriber to shed events");
}

#[test]
fn emfile_at_accept_pauses_and_recovers() {
    use FaultAction::*;
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        SendPlan { conn: 0, id: 1, spec: plan_spec(16) },
        InjectAcceptError { errno: 24 },
        // Stuck behind the backoff pause until virtual time passes it.
        Connect { conn: 1 },
        Advance { ms: 100 },
        SendPlan { conn: 0, id: 2, spec: plan_spec(24) },
        Advance { ms: 300 },
        SendPlan { conn: 1, id: 3, spec: plan_spec(32) },
    ]);
    let transcript = run_plan(&plan);
    check_all(&transcript).assert_ok(&transcript);
    assert!(
        transcript.counter("qsync_transport_accept_pauses_total") >= 1,
        "EMFILE did not trip the accept-backoff pause"
    );
    // The connection that arrived during the pause was served after it.
    assert!(transcript.conns[1]
        .replies
        .iter()
        .any(|r| r.get("Plan").map(|p| p["id"].as_u64()) == Some(Some(3))));
}

#[test]
fn torn_single_byte_writes_still_deliver_every_reply() {
    use FaultAction::*;
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        SetWriteChunk { conn: 0, chunk: Some(1) },
        SendPlan { conn: 0, id: 1, spec: plan_spec(16) },
        SendPlan { conn: 0, id: 2, spec: plan_spec(24) },
        SetWriteChunk { conn: 0, chunk: None },
        SendPlan { conn: 0, id: 3, spec: plan_spec(32) },
    ]);
    let transcript = run_plan(&plan);
    check_all(&transcript).assert_ok(&transcript);
}

#[test]
fn reader_stall_backpressure_does_not_leak_or_starve_others() {
    use FaultAction::*;
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        Connect { conn: 1 },
        StallReader { conn: 0, cap: 16 },
        SendBatch {
            conn: 0,
            first_id: 1,
            specs: vec![plan_spec(16), plan_spec(24), plan_spec(32), plan_spec(48)],
        },
        SendPlan { conn: 1, id: 20, spec: plan_spec(16) },
        Advance { ms: 100 },
        ResumeReader { conn: 0 },
    ]);
    let transcript = run_plan(&plan);
    check_all(&transcript).assert_ok(&transcript);
}

#[test]
fn half_close_still_flushes_replies() {
    use FaultAction::*;
    // Client sends a batch then closes its write side: a clean half-close
    // must still deliver every reply before the server closes.
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        SendBatch { conn: 0, first_id: 1, specs: vec![plan_spec(16), plan_spec(24)] },
        CloseWrite { conn: 0 },
        Advance { ms: 10 },
    ]);
    let transcript = run_plan(&plan);
    check_all(&transcript).assert_ok(&transcript);
    assert!(transcript.conns[0].server_closed);
}

/// The overload corpus runs under tight limits: a small per-connection
/// bucket every flood blows through, a per-client bucket shared identities
/// can exhaust across connections, a plan-eval budget that preempts
/// brute-force initial passes, and an aging bound on the scheduler.
fn overload_config() -> SimConfig {
    let mut config = SimConfig::default();
    config.transport.rate_limit = RateLimitConfig {
        per_conn: Some(TokenBucketConfig { rate_per_sec: 4, burst: 6 }),
        per_client: Some(TokenBucketConfig { rate_per_sec: 2, burst: 8 }),
    };
    config.plan_budget_evals = Some(2);
    config.sched.age_limit_ms = Some(500);
    config
}

/// Overload seeds pinned after a sweep: together they shed on both bucket
/// scopes, preempt initial passes, and cover every overload fault kind.
/// Like [`PINNED_SEEDS`], never rotate one away because it fails — fix the
/// bug it found.
const PINNED_OVERLOAD_SEEDS: [u64; 5] = [4, 12, 20, 27, 35];

/// The overload kinds the pinned set must keep covering.
const OVERLOAD_KINDS: [&str; 4] = ["send-flood", "conn-flood", "stalled-reader", "delta-storm"];

#[test]
fn pinned_overload_seeds_uphold_all_invariants() {
    let mut covered: Vec<&'static str> = Vec::new();
    let (mut shed_conn, mut shed_client, mut preempted) = (0u64, 0u64, 0u64);
    for seed in PINNED_OVERLOAD_SEEDS {
        let plan = FaultPlan::generate_overload(seed);
        for kind in plan.fault_kinds() {
            if !covered.contains(&kind) {
                covered.push(kind);
            }
        }
        let transcript = run_plan_with(overload_config(), &plan);
        check_all(&transcript).assert_ok(&transcript);
        shed_conn += transcript.counter("qsync_transport_rate_limited_total{scope=\"conn\"}");
        shed_client += transcript.counter("qsync_transport_rate_limited_total{scope=\"client\"}");
        preempted += transcript.counter("qsync_plan_preemptions_total");
    }
    for kind in OVERLOAD_KINDS {
        assert!(covered.contains(&kind), "overload corpus no longer covers {kind:?}: {covered:?}");
    }
    // The corpus must keep exercising all three protection mechanisms, or
    // the oracle's overload invariants are running vacuously.
    assert!(shed_conn > 0, "no pinned overload seed tripped the per-connection bucket");
    assert!(shed_client > 0, "no pinned overload seed tripped the per-client bucket");
    assert!(preempted > 0, "no pinned overload seed preempted an initial pass");
}

#[test]
fn flood_sheds_exactly_the_bucket_overflow_with_structured_errors() {
    use FaultAction::*;
    // One 10-burst against a fresh burst-6 bucket: exactly 6 admitted plans
    // and exactly 4 structured sheds, every id answered once (the oracle
    // enforces the exactly-once and counter-accounting halves).
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        SendFlood { conn: 0, first_id: 1, count: 10, spec: plan_spec(16) },
        Advance { ms: 10 },
    ]);
    let transcript = run_plan_with(overload_config(), &plan);
    check_all(&transcript).assert_ok(&transcript);
    let sheds = transcript.counter("qsync_transport_rate_limited_total{scope=\"conn\"}");
    assert_eq!(sheds, 4, "burst 6 against a 10-flood must shed exactly 4");
    let served = transcript.conns[0]
        .replies
        .iter()
        .filter(|r| r.get("Plan").is_some())
        .count();
    assert_eq!(served, 6, "burst 6 must admit exactly 6 flood members");
}

#[test]
fn exhausted_bucket_refills_after_a_backoff_lull() {
    use FaultAction::*;
    // Exhaust the bucket, wait 2 virtual seconds (rate 4/s → 8 tokens, over
    // the burst cap of 6), then a 6-burst must be admitted in full.
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        SendFlood { conn: 0, first_id: 1, count: 10, spec: plan_spec(16) },
        Advance { ms: 2000 },
        SendFlood { conn: 0, first_id: 20, count: 6, spec: plan_spec(24) },
        Advance { ms: 10 },
    ]);
    let transcript = run_plan_with(overload_config(), &plan);
    check_all(&transcript).assert_ok(&transcript);
    for id in 20..26u64 {
        assert!(
            transcript.conns[0]
                .replies
                .iter()
                .any(|r| r.get("Plan").map(|p| p["id"].as_u64()) == Some(Some(id))),
            "post-refill flood member {id} was not served"
        );
    }
}

#[test]
fn per_client_bucket_spans_connections() {
    use FaultAction::*;
    // Two connections sharing one client identity: each stays inside its
    // per-connection burst (6), but together they blow the client's burst
    // of 8 — the second connection's tail sheds at client scope.
    let spec = PlanSpec { hidden: 16, client: Some(7), deadline_ms: None, background: false };
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        Connect { conn: 1 },
        SendFlood { conn: 0, first_id: 1, count: 6, spec: spec.clone() },
        SendFlood { conn: 1, first_id: 10, count: 6, spec },
        Advance { ms: 10 },
    ]);
    let transcript = run_plan_with(overload_config(), &plan);
    check_all(&transcript).assert_ok(&transcript);
    assert_eq!(
        transcript.counter("qsync_transport_rate_limited_total{scope=\"conn\"}"),
        0,
        "neither connection exceeded its own bucket"
    );
    assert_eq!(
        transcript.counter("qsync_transport_rate_limited_total{scope=\"client\"}"),
        4,
        "client-7 sent 12 against burst 8: exactly 4 client-scope sheds"
    );
}

#[test]
fn tight_eval_budget_preempts_and_replays_byte_identically() {
    use FaultAction::*;
    // Under a 2-eval budget every cold plan preempts its brute-force initial
    // pass; the oracle's coherence check replays the op log under the same
    // budget, so a pass here proves budgeted planning is deterministic.
    let plan = FaultPlan::scripted(vec![
        Connect { conn: 0 },
        SendPlan { conn: 0, id: 1, spec: plan_spec(16) },
        SendPlan { conn: 0, id: 2, spec: plan_spec(24) },
        // A background request rides along: admitted work completes even
        // while budget preemption is curtailing each pass (the aging bound's
        // end-to-end witness; the exactly-once invariant asserts its reply).
        SendPlan {
            conn: 0,
            id: 3,
            spec: PlanSpec { hidden: 32, client: None, deadline_ms: None, background: true },
        },
        Advance { ms: 50 },
    ]);
    let transcript = run_plan_with(overload_config(), &plan);
    check_all(&transcript).assert_ok(&transcript);
    assert!(
        transcript.counter("qsync_plan_preemptions_total") >= 3,
        "a 2-eval budget must preempt every cold initial pass"
    );
    assert!(
        transcript.conns[0]
            .replies
            .iter()
            .any(|r| r.get("Plan").map(|p| p["id"].as_u64()) == Some(Some(3))),
        "the background request must complete under budget preemption"
    );
}

#[test]
fn fresh_overload_seed() {
    // Like `fresh_seed`, but through the overload generator and config: every
    // CI run probes one new overload schedule on top of the pinned set.
    let seed = std::env::var("QSYNC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0x0BAC_C0FF);
    println!("overload chaos seed: {seed}");
    let plan = FaultPlan::generate_overload(seed);
    let transcript = run_plan_with(overload_config(), &plan);
    check_all(&transcript).assert_ok(&transcript);
}

#[test]
fn fresh_seed() {
    // CI passes a random QSYNC_CHAOS_SEED and echoes it, so every run
    // explores one new schedule; locally this falls back to a fixed seed.
    let seed = std::env::var("QSYNC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    println!("chaos seed: {seed}");
    let plan = FaultPlan::generate(seed);
    let transcript = run_plan(&plan);
    check_all(&transcript).assert_ok(&transcript);
}

#[test]
fn chaos_replay_keeps_the_compute_pool_sequential() {
    // Determinism guard for the whole harness: serving never fans out to
    // the qsync-pool (planning runs on the stepping thread), so replaying
    // chaos scripts must never spawn a pool worker thread — plan math on
    // free-running threads would let scheduling noise into a transcript
    // that has to be a pure function of its script. The replays run under
    // an installed 2-thread pool, so the check holds on a 1-core host too,
    // where the global pool has no workers to spawn.
    let pool = qsync_pool::Pool::with_threads(2);
    pool.install(|| {
        for seed in [11u64, 26, 54] {
            let plan = FaultPlan::generate(seed);
            let transcript = run_plan(&plan);
            check_all(&transcript).assert_ok(&transcript);
        }
    });
    assert!(
        !pool.stats().spawned,
        "the installed compute pool spawned workers during a deterministic sim replay"
    );
    assert!(
        !qsync_pool::global_spawned(),
        "the global compute pool spawned workers during a deterministic sim replay"
    );
}
