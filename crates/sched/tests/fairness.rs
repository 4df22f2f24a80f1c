//! Scheduler integration tests: the fairness, flood and deadline bounds,
//! under a deterministic virtual-time simulation.
//!
//! A single worker pops jobs and advances a [`ManualClock`] by each job's
//! service time, so every queue-wait figure is exact and reproducible:
//! dispatch order depends only on submit order and scheduler state.

use std::collections::BTreeMap;
use std::sync::Arc;

use qsync_sched::{JobMeta, ManualClock, Priority, SchedConfig, SchedPolicy, Scheduler};

/// Run all pre-submitted jobs to completion under one worker, advancing the
/// clock by `service_ms` per job. Returns per-client queue waits in dispatch
/// order.
fn drain_timed(
    sched: &Scheduler<&'static str>,
    clock: &ManualClock,
    service_ms: u64,
) -> BTreeMap<&'static str, Vec<u64>> {
    let mut waits: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    while let Some(mut job) = sched.try_next() {
        let client = job.take_payload();
        waits.entry(client).or_default().push(job.queue_wait_ms());
        clock.advance(service_ms);
        drop(job);
    }
    waits
}

fn p99(waits: &[u64]) -> u64 {
    let mut sorted = waits.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) * 99 / 100]
}

fn scheduler(policy: SchedPolicy) -> (Scheduler<&'static str>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new());
    let config = SchedConfig { policy, ..SchedConfig::default() };
    (Scheduler::with_clock(config, clock.clone()), clock)
}

/// Saturating mix: four clients, equal offered load, but their bursts land
/// back-to-back in arrival order. FIFO serves the bursts sequentially, so the
/// last client's jobs all wait behind three full bursts while the first
/// client's barely wait — per-client p99 queue waits spread ~4x. DRR
/// round-robins the clients, so every client drains at the same per-client
/// pace and p99 waits are within 2x of each other.
fn burst_skew_p99s(policy: SchedPolicy) -> BTreeMap<&'static str, u64> {
    let (sched, clock) = scheduler(policy);
    for client in ["a", "b", "c", "d"] {
        for _ in 0..100 {
            sched.submit(client, JobMeta::new(client, Priority::Interactive)).unwrap();
        }
    }
    let waits = drain_timed(&sched, &clock, 1);
    waits.into_iter().map(|(client, w)| (client, p99(&w))).collect()
}

#[test]
fn drr_keeps_per_client_p99_within_2x_where_fifo_does_not() {
    let fifo = burst_skew_p99s(SchedPolicy::Fifo);
    let drr = burst_skew_p99s(SchedPolicy::Drr);
    let ratio = |p99s: &BTreeMap<&str, u64>| {
        let max = *p99s.values().max().unwrap() as f64;
        let min = (*p99s.values().min().unwrap()).max(1) as f64;
        max / min
    };
    let fifo_ratio = ratio(&fifo);
    let drr_ratio = ratio(&drr);
    assert!(
        fifo_ratio > 2.0,
        "FIFO should spread per-client p99 waits past 2x, got {fifo_ratio:.2} ({fifo:?})"
    );
    assert!(
        drr_ratio <= 2.0,
        "DRR must keep per-client p99 waits within 2x, got {drr_ratio:.2} ({drr:?})"
    );
}

/// Flood protection: one client floods 300 jobs; three light clients submit
/// 10 each afterwards. Under FIFO the light jobs queue behind the whole
/// flood; under DRR they are served one per round.
#[test]
fn drr_shields_light_clients_from_a_flood() {
    let light_p99 = |policy| {
        let (sched, clock) = scheduler(policy);
        for _ in 0..300 {
            sched.submit("flood", JobMeta::new("flood", Priority::Interactive)).unwrap();
        }
        for client in ["l1", "l2", "l3"] {
            for _ in 0..10 {
                sched.submit(client, JobMeta::new(client, Priority::Interactive)).unwrap();
            }
        }
        let waits = drain_timed(&sched, &clock, 1);
        ["l1", "l2", "l3"].iter().map(|c| p99(&waits[c])).max().unwrap()
    };
    let fifo = light_p99(SchedPolicy::Fifo);
    let drr = light_p99(SchedPolicy::Drr);
    assert!(
        fifo >= 300,
        "FIFO light clients wait behind the whole flood, got p99 {fifo}"
    );
    assert!(
        drr <= fifo / 5,
        "DRR light p99 ({drr}) should be at least 5x better than FIFO ({fifo})"
    );
}

/// Deadline-tagged jobs behind a flood: under DRR they ride the EDF lane and
/// complete in time; under FIFO they all miss. Either way, every tagged job
/// is accounted as met or missed — never silently dropped.
#[test]
fn deadline_jobs_meet_under_edf_and_miss_under_fifo() {
    let run = |policy| {
        let (sched, clock) = scheduler(policy);
        for _ in 0..200 {
            sched.submit("flood", JobMeta::new("flood", Priority::Interactive)).unwrap();
        }
        for _ in 0..20 {
            sched
                .submit("dl", JobMeta::new("dl", Priority::Interactive).with_deadline_ms(50))
                .unwrap();
        }
        drain_timed(&sched, &clock, 1);
        sched.stats()
    };
    let fifo = run(SchedPolicy::Fifo);
    assert_eq!(fifo.deadline_met + fifo.deadline_misses, 20);
    assert_eq!(fifo.deadline_misses, 20, "FIFO: every tagged job waits ~200ms, all miss");
    let drr = run(SchedPolicy::Drr);
    assert_eq!(drr.deadline_met + drr.deadline_misses, 20);
    assert_eq!(drr.deadline_met, 20, "EDF lane: tagged jobs dispatch first and all meet");
}

/// The whole simulation is deterministic: two identical runs produce the
/// identical wait profile.
#[test]
fn virtual_time_simulation_is_deterministic() {
    assert_eq!(burst_skew_p99s(SchedPolicy::Drr), burst_skew_p99s(SchedPolicy::Drr));
    assert_eq!(burst_skew_p99s(SchedPolicy::Fifo), burst_skew_p99s(SchedPolicy::Fifo));
}
