//! The invariant oracle: checks a [`RunTranscript`] against the guarantees
//! the server makes **under any fault schedule**.
//!
//! Five families of invariants:
//!
//! 1. **Exactly-once replies** — every fully-sent command on a surviving
//!    connection draws exactly one correlated reply (a result or one
//!    structured error); on a hard-dropped connection, at most one. No reply
//!    ever answers an id that was not sent. Under overload this is the
//!    shedding contract: an admitted request gets exactly one result, a
//!    rate-limited request exactly one structured error — never silence.
//! 2. **Cache coherence** — replaying the server's op log (plans and
//!    coalesced delta waves, in execution order) serially against a fresh
//!    engine — under the run's plan-eval preemption budget — reproduces the
//!    final cache byte-for-byte: same keys, same serialized plans. Whatever
//!    the fault schedule did to connections, it must not have perturbed
//!    planning state.
//! 3. **Subscriber accounting** — event sequence numbers strictly increase,
//!    stay within the run's resync baselines, and `delivered + dropped`
//!    exactly covers the sequence interval: a slow consumer loses events
//!    only into the counted drop column, never silently.
//! 4. **Drain completeness** — after graceful shutdown every surviving
//!    connection was closed by the server (with, per invariant 1, all its
//!    replies delivered first).
//! 5. **Overload shedding** — a `rate_limited` error is a *refusal*, not a
//!    failure: its request must never also appear in the server's op log
//!    (shed means the engine never saw it), and when no connection died the
//!    wire-visible shed count must equal the transport's rate-limit
//!    counters — the server may not shed silently, and may not count sheds
//!    it never reported.
//!
//! [`OracleReport::assert_ok`] panics with the seed and the full fault
//! script, so a failing chaos run is replayable from its output alone.

use std::collections::HashMap;

use qsync_serve::{PlanEngine, SimOp};

use crate::driver::{snapshot_cache, ConnRecord, RunTranscript};

/// Outcome of an oracle pass: the list of violated invariants (empty means
/// the run upheld all of them).
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Human-readable violation descriptions, one per failed check.
    pub violations: Vec<String>,
}

impl OracleReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with every violation, the generator seed and the fault script
    /// when any invariant failed — everything needed to replay the run.
    pub fn assert_ok(&self, transcript: &RunTranscript) {
        if self.ok() {
            return;
        }
        panic!(
            "oracle violations:\n  {}\nreplay seed: {:?}\nfault script:\n{:#?}",
            self.violations.join("\n  "),
            transcript.plan.seed,
            transcript.plan.actions,
        );
    }
}

/// Run every invariant check over a transcript.
pub fn check_all(transcript: &RunTranscript) -> OracleReport {
    let mut report = OracleReport::default();
    check_exactly_once(transcript, &mut report);
    check_coherence(transcript, &mut report);
    check_subscribers(transcript, &mut report);
    check_drain(transcript, &mut report);
    check_overload(transcript, &mut report);
    report
}

/// The reply variant name (the single enum-tag key of a reply object).
fn variant(reply: &serde_json::Value) -> &str {
    reply
        .as_object()
        .and_then(|pairs| pairs.first())
        .map(|(key, _)| key.as_str())
        .unwrap_or("")
}

/// The command id a reply answers, if any: `Event` lines answer nothing, and
/// parse errors of garbage lines carry no id.
fn correlation_id(reply: &serde_json::Value) -> Option<u64> {
    let tag = variant(reply);
    if tag == "Event" {
        return None;
    }
    reply.get(tag)?.get("id")?.as_u64()
}

fn check_exactly_once(transcript: &RunTranscript, report: &mut OracleReport) {
    for (index, conn) in transcript.conns.iter().enumerate() {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for reply in &conn.replies {
            if let Some(id) = correlation_id(reply) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        for id in &conn.sent_ids {
            let n = counts.remove(id).unwrap_or(0);
            if conn.dropped {
                if n > 1 {
                    report.violations.push(format!(
                        "exactly-once: conn {index} (dropped) received {n} replies for id {id}"
                    ));
                }
            } else if n != 1 {
                report.violations.push(format!(
                    "exactly-once: conn {index} received {n} replies for id {id} (want 1)"
                ));
            }
        }
        // Whatever remains answered an id this connection never fully sent.
        let mut stray: Vec<u64> = counts.into_keys().collect();
        stray.sort_unstable();
        for id in stray {
            report
                .violations
                .push(format!("exactly-once: conn {index} received a reply for unsent id {id}"));
        }
    }
}

fn check_coherence(transcript: &RunTranscript, report: &mut OracleReport) {
    // A fresh engine with the same cache sizing; waves are replayed exactly
    // as the op log grouped them.
    let engine = PlanEngine::with_cache_config(transcript.cache_config)
        .with_plan_budget(transcript.plan_budget);
    for op in &transcript.ops {
        match op {
            SimOp::Plan(request) => {
                let _ = engine.plan(request);
            }
            SimOp::DeltaWave(requests) => {
                let _ = engine.apply_deltas_with(requests, |chains| {
                    chains.iter().map(|chain| engine.run_replan_chain(chain)).collect()
                });
            }
        }
    }
    let replayed = snapshot_cache(&engine);
    if replayed != transcript.cache {
        let live: Vec<&String> = transcript.cache.iter().map(|(k, _)| k).collect();
        let replay: Vec<&String> = replayed.iter().map(|(k, _)| k).collect();
        let detail = if live == replay {
            "same keys, different plan bytes".to_string()
        } else {
            format!("live keys {live:?} vs replay keys {replay:?}")
        };
        report.violations.push(format!(
            "coherence: final cache diverges from serial replay of {} ops ({detail})",
            transcript.ops.len()
        ));
    }
}

/// The `(seq, dropped)` pair from the `Resynced` reply answering `id`.
fn resync_point(conn: &ConnRecord, id: u64) -> Option<(u64, u64)> {
    for reply in &conn.replies {
        if variant(reply) == "Resynced" {
            let body = &reply["Resynced"];
            if body["id"].as_u64() == Some(id) {
                return Some((body["seq"].as_u64()?, body["dropped"].as_u64()?));
            }
        }
    }
    None
}

fn check_subscribers(transcript: &RunTranscript, report: &mut OracleReport) {
    for (index, conn) in transcript.conns.iter().enumerate() {
        if !conn.subscribed {
            continue;
        }
        let seqs: Vec<u64> = conn
            .replies
            .iter()
            .filter(|r| variant(r) == "Event")
            .filter_map(|r| r["Event"]["seq"].as_u64())
            .collect();
        // Sequence numbers never regress, dropped connection or not.
        for pair in seqs.windows(2) {
            if pair[1] <= pair[0] {
                report.violations.push(format!(
                    "subscriber: conn {index} event seq regressed {} -> {}",
                    pair[0], pair[1]
                ));
            }
        }
        // Full accounting needs both resync anchors and an intact connection.
        if conn.dropped {
            continue;
        }
        let (Some(baseline_id), Some(final_id)) =
            (conn.baseline_resync_id, conn.final_resync_id)
        else {
            continue;
        };
        let (Some((seq0, dropped0)), Some((seq1, dropped1))) =
            (resync_point(conn, baseline_id), resync_point(conn, final_id))
        else {
            report.violations.push(format!(
                "subscriber: conn {index} is missing a Resynced anchor reply"
            ));
            continue;
        };
        // `Resynced.seq` is the next sequence number to be assigned, so the
        // events this connection saw live in `[seq0, seq1)`.
        for &seq in &seqs {
            if seq < seq0 || seq >= seq1 {
                report.violations.push(format!(
                    "subscriber: conn {index} event seq {seq} outside baseline interval [{seq0}, {seq1})"
                ));
            }
        }
        let delivered = seqs.len() as u64;
        let dropped = dropped1 - dropped0;
        if delivered + dropped != seq1 - seq0 {
            report.violations.push(format!(
                "subscriber: conn {index} delivered {delivered} + dropped {dropped} != interval {} (seq {seq0}..{seq1})",
                seq1 - seq0
            ));
        }
    }
}

fn check_drain(transcript: &RunTranscript, report: &mut OracleReport) {
    for (index, conn) in transcript.conns.iter().enumerate() {
        if !conn.dropped && !conn.server_closed {
            report.violations.push(format!(
                "drain: conn {index} was never closed by the server after shutdown"
            ));
        }
    }
}

/// Whether this scrubbed reply is a structured `rate_limited` shed, and the
/// id it answers. The sim driver speaks bare (v0) lines, so sheds arrive in
/// the legacy `Error` shape — recognized by the server's fixed message; a
/// v1 envelope path would carry the `Fault` code instead, handled too.
fn rate_limited_id(reply: &serde_json::Value) -> Option<u64> {
    if let Some(body) = reply.get("Fault") {
        return (body["code"].as_str() == Some("RateLimited")).then(|| body["id"].as_u64())?;
    }
    let body = reply.get("Error")?;
    (body["message"].as_str()?.contains("rate limit exceeded")).then(|| body["id"].as_u64())?
}

fn check_overload(transcript: &RunTranscript, report: &mut OracleReport) {
    let mut shed_ids: Vec<u64> = Vec::new();
    for conn in &transcript.conns {
        shed_ids.extend(conn.replies.iter().filter_map(rate_limited_id));
    }
    if shed_ids.is_empty() && transcript.counter("qsync_transport_rate_limited_total{scope=\"conn\"}") == 0
        && transcript.counter("qsync_transport_rate_limited_total{scope=\"client\"}") == 0
    {
        return;
    }

    // A shed request must never have reached the engine: its id may not
    // appear in the execution-order op log.
    for op in &transcript.ops {
        if let SimOp::Plan(request) = op {
            if shed_ids.contains(&request.id) {
                report.violations.push(format!(
                    "overload: id {} was rate-limited on the wire yet executed by the engine",
                    request.id
                ));
            }
        }
    }

    // With every reply delivered (no hard drops lose in-flight faults), the
    // wire-visible shed count and the transport's accounting must agree.
    if transcript.conns.iter().all(|conn| !conn.dropped) {
        let counted = transcript.counter("qsync_transport_rate_limited_total{scope=\"conn\"}")
            + transcript.counter("qsync_transport_rate_limited_total{scope=\"client\"}");
        if counted != shed_ids.len() as u64 {
            report.violations.push(format!(
                "overload: {} rate_limited errors on the wire but rate-limit counters total {counted}",
                shed_ids.len()
            ));
        }
    }
}
