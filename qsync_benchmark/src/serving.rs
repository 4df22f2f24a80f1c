//! The three serving workloads: closed-loop load over loopback TCP against a
//! `qsync-serve` child, every reply checked against what the request must
//! produce.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qsync_api::{
    DeltaResponse, PlanOutcome, PlanRequest, PlanResponse, ServerCommand, ServerReply,
};
use qsync_client::RawClient;
use serde_json::json;

use crate::config::{self, CHURN_PREFIX_CYCLES, CLIENTS, COLD_PREFIX, HIT_PREFIX, SETUP_REPEATS};
use crate::gen::{self, ChurnCycle, ChurnStream, ColdStream, Digest, HitStream, Rng};
use crate::server::{beside_executable, Server};
use crate::{stats, Outcome};

/// Operations attempted and failed on one connection, with the first few
/// reasons. A refused, faulted or wrong reply is a failed operation and
/// contributes no latency sample.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 4 {
            self.notes.push(note);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// One protocol connection and its tally. `broken` is set once the transport
/// fails (the child died or closed the socket); the loops stop on it.
pub struct Conn {
    client: RawClient,
    pub tally: Tally,
    pub broken: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let client = RawClient::connect_timeout(addr, Duration::from_secs(30))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            client,
            tally: Tally::default(),
            broken: false,
        })
    }

    /// One closed-loop operation: encode and send, wait for the reply line,
    /// decode it. Returns the reply and the microseconds all of that took.
    /// v0 lines for the commands v0 has, envelopes for the rest.
    pub fn call(&mut self, command: &ServerCommand) -> Option<(ServerReply, f64)> {
        self.tally.attempted += 1;
        let legacy = matches!(
            command,
            ServerCommand::Plan(_) | ServerCommand::Delta(_) | ServerCommand::Stats { .. }
        );
        let started = Instant::now();
        let sent = if legacy {
            self.client.send_legacy(command)
        } else {
            self.client.send_enveloped(command)
        };
        match sent.and_then(|()| self.client.recv()) {
            Ok(reply) => Some((reply, started.elapsed().as_secs_f64() * 1e6)),
            Err(e) => {
                self.broken = true;
                self.tally
                    .fail(format!("command {}: transport failed: {e}", command.id()));
                None
            }
        }
    }

    /// A plan request whose reply must echo the id, carry `outcome`, and be
    /// keyed by the request's own locally computed `cache_key()`.
    fn plan(
        &mut self,
        request: PlanRequest,
        outcome: PlanOutcome,
        key: &str,
    ) -> Option<(PlanResponse, f64)> {
        let id = request.id;
        let (reply, us) = self.call(&ServerCommand::Plan(request))?;
        match reply {
            ServerReply::Plan(response)
                if response.id == id && response.outcome == outcome && response.key == key =>
            {
                Some((response, us))
            }
            ServerReply::Plan(response) => {
                self.tally.fail(format!(
                    "plan {id}: expected {outcome:?} under key {key}, got id {} {:?} under {}",
                    response.id, response.outcome, response.key
                ));
                None
            }
            other => {
                self.tally
                    .fail(format!("plan {id}: unexpected reply {}", brief(&other)));
                None
            }
        }
    }

    /// A resident key: the reply must be a `CacheHit` carrying exactly the
    /// plan the set-up reply for that key carried. The plans are compared as
    /// values; serialization is deterministic, so equal values are equal
    /// `plan_json()` bytes.
    fn hit(&mut self, request: PlanRequest, reference: &PlanResponse) -> Option<f64> {
        let id = request.id;
        let (response, us) = self.plan(request, PlanOutcome::CacheHit, &reference.key)?;
        if response.plan == reference.plan
            && response.predicted_iteration_us == reference.predicted_iteration_us
            && response.t_min_us == reference.t_min_us
            && response.promotions_accepted == reference.promotions_accepted
        {
            Some(us)
        } else {
            self.tally.fail(format!(
                "plan {id}: hit differs from the set-up reply for its key"
            ));
            None
        }
    }
}

fn brief(reply: &ServerReply) -> String {
    let mut text = format!("{reply:?}");
    text.truncate(160);
    text
}

/// The measured window of a run: load starts at once, samples count from
/// `measure_from`, generators stop at `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub measure_from: Instant,
    pub end: Instant,
}

impl Window {
    pub fn starting_now(warmup: Duration, seconds: f64) -> Window {
        let measure_from = Instant::now() + warmup;
        Window {
            measure_from,
            end: measure_from + Duration::from_secs_f64(seconds),
        }
    }

    fn open(&self) -> bool {
        Instant::now() < self.end
    }
}

/// Latency samples of the measured window: `(seconds into the window at
/// which the operation was sent, microseconds it took)`.
#[derive(Debug, Default)]
pub struct Samples(pub Vec<(f64, f64)>);

impl Samples {
    fn record(&mut self, window: &Window, sent: Instant, us: f64) {
        if sent >= window.measure_from && sent < window.end {
            self.0
                .push(((sent - window.measure_from).as_secs_f64(), us));
        }
    }

    fn latencies(&self) -> Vec<f64> {
        stats::sorted(self.0.iter().map(|&(_, us)| us).collect())
    }

    /// Operations per second over the window (see [`stats::block_rate`]).
    fn rate(&self, seconds: f64) -> f64 {
        stats::block_rate(self.0.iter().map(|&(at, _)| at).collect(), seconds as usize)
    }
}

/// Mean of a quantity over a fixed prefix of a seeded sequence.
#[derive(Debug, Default, Clone, Copy)]
struct PrefixMean {
    sum: f64,
    seen: usize,
}

impl PrefixMean {
    fn add(&mut self, value: usize) {
        self.sum += value as f64;
        self.seen += 1;
    }

    fn merge(self, other: PrefixMean) -> PrefixMean {
        PrefixMean {
            sum: self.sum + other.sum,
            seen: self.seen + other.seen,
        }
    }
}

fn hit_loop(
    conn: &mut Conn,
    stream: &mut HitStream,
    reference: &[PlanResponse],
    window: Window,
) -> Samples {
    let mut samples = Samples::default();
    while window.open() && !conn.broken {
        let (rank, request) = stream.next_ranked();
        let sent = Instant::now();
        if let Some(us) = conn.hit(request, &reference[rank]) {
            samples.record(&window, sent, us);
        }
    }
    samples
}

fn cold_loop(conn: &mut Conn, stream: &mut ColdStream, window: Window) -> (Samples, PrefixMean) {
    let mut samples = Samples::default();
    let mut promotions = PrefixMean::default();
    let mut index = 0;
    while window.open() && !conn.broken {
        let request = stream.next_request();
        let key = request.cache_key();
        let sent = Instant::now();
        let reply = conn.plan(request, PlanOutcome::ColdPlanned, &key);
        if let Some((response, us)) = reply {
            samples.record(&window, sent, us);
            if index < COLD_PREFIX {
                promotions.add(response.promotions_accepted);
            }
        }
        index += 1;
    }
    (samples, promotions)
}

/// A delta reply must echo the id, report every one of the cycle's plans
/// invalidated, and carry their warm re-plans keyed under the new shape.
fn check_delta(
    tally: &mut Tally,
    cycle: &ChurnCycle,
    step: usize,
    response: &DeltaResponse,
) -> bool {
    let id = cycle.deltas[step].id;
    let mut expected: Vec<String> = cycle
        .plans
        .iter()
        .map(|plan| {
            let mut moved = plan.clone();
            moved.cluster = cycle.shapes[step].clone();
            moved.cache_key()
        })
        .collect();
    expected.sort();
    let mut got: Vec<String> = response.replanned.iter().map(|r| r.key.clone()).collect();
    got.sort();
    let warm = response
        .replanned
        .iter()
        .all(|r| r.outcome == PlanOutcome::WarmReplanned);
    if response.id == id && response.invalidated == cycle.plans.len() && warm && got == expected {
        true
    } else {
        tally.fail(format!(
            "delta {id}: expected {} invalidated and as many warm re-plans under the new shape, \
             got id {} invalidated {} replanned {}",
            cycle.plans.len(),
            response.id,
            response.invalidated,
            response.replanned.len()
        ));
        false
    }
}

/// What the write connection of `elastic_churn` brings back.
struct Churned {
    /// Delta round trips: the latency metrics.
    deltas: Samples,
    /// Plans and deltas alike: what `ops_per_s` counts.
    writes: Samples,
    promotions: PrefixMean,
}

fn churn_loop(conn: &mut Conn, stream: &mut ChurnStream, window: Window) -> Churned {
    let mut churned = Churned {
        deltas: Samples::default(),
        writes: Samples::default(),
        promotions: PrefixMean::default(),
    };
    let mut cycles = 0;
    while window.open() && !conn.broken {
        let cycle = stream.next_cycle();
        let in_prefix = cycles < CHURN_PREFIX_CYCLES;
        for request in &cycle.plans {
            let key = request.cache_key();
            let sent = Instant::now();
            if let Some((response, us)) = conn.plan(request.clone(), PlanOutcome::ColdPlanned, &key)
            {
                churned.writes.record(&window, sent, us);
                if in_prefix {
                    churned.promotions.add(response.promotions_accepted);
                }
            }
        }
        for step in 0..cycle.deltas.len() {
            let sent = Instant::now();
            let Some((reply, us)) = conn.call(&ServerCommand::Delta(cycle.deltas[step].clone()))
            else {
                break;
            };
            match reply {
                ServerReply::Delta(response) => {
                    if check_delta(&mut conn.tally, &cycle, step, &response) {
                        churned.deltas.record(&window, sent, us);
                        churned.writes.record(&window, sent, us);
                        if in_prefix {
                            response
                                .replanned
                                .iter()
                                .for_each(|r| churned.promotions.add(r.promotions_accepted));
                        }
                    }
                }
                other => conn.tally.fail(format!(
                    "delta {}: unexpected reply {}",
                    cycle.deltas[step].id,
                    brief(&other)
                )),
            }
        }
        cycles += 1;
    }
    churned
}

/// A directory for the plan store, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = beside_executable(&format!("qsync_benchmark.tmp.{}", std::process::id()))?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn first_failure(conn: &Conn, what: &str) -> String {
    format!(
        "{what} failed: {}",
        conn.tally
            .notes
            .first()
            .map(String::as_str)
            .unwrap_or("no reply")
    )
}

/// One command on a connection of its own; `expected` picks the reply
/// variant that answers it, anything else is an error.
fn ask<T>(
    addr: SocketAddr,
    command: ServerCommand,
    what: &str,
    expected: impl FnOnce(ServerReply) -> Result<T, Box<ServerReply>>,
) -> Result<T, String> {
    let mut conn = Conn::connect(addr)?;
    let (reply, _) = conn
        .call(&command)
        .ok_or_else(|| first_failure(&conn, what))?;
    expected(reply).map_err(|other| format!("{what} failed: {}", brief(&other)))
}

/// Plan the resident set cold on a fresh connection; the replies become the
/// reference every later hit is compared with.
fn plan_resident(
    addr: SocketAddr,
    resident: &[PlanRequest],
    outcome: PlanOutcome,
) -> Result<Vec<PlanResponse>, String> {
    let mut conn = Conn::connect(addr)?;
    let mut replies = Vec::with_capacity(resident.len());
    for (i, template) in resident.iter().enumerate() {
        let mut request = template.clone();
        request.id = i as u64 + 1;
        let key = request.cache_key();
        match conn.plan(request, outcome, &key) {
            Some((response, _)) => replies.push(response),
            None => return Err(first_failure(&conn, "set-up plan")),
        }
    }
    Ok(replies)
}

/// A server ready for its measured window.
pub struct Ready {
    pub server: Server,
    /// Set-up replies for the resident keys, by rank (empty on `cold_sweep`).
    pub reference: Vec<PlanResponse>,
    /// One value per set-up repetition.
    pub setup_s: Vec<f64>,
    _scratch: Option<Scratch>,
}

/// `hit_zipf`: plan the resident set once on a server with a store, snapshot
/// and kill it; then `setup_s` is a **warm boot** — spawn on that store until
/// every resident key answers as a hit.
fn setup_hit_zipf(bin: &Path, resident: &[PlanRequest]) -> Result<Ready, String> {
    let scratch = Scratch::new()?;
    let store = scratch.0.join("plans.qstore");
    let reference = {
        let mut first = Server::spawn(bin, Some(&store))?;
        let reference = plan_resident(first.addr, resident, PlanOutcome::ColdPlanned)?;
        ask(
            first.addr,
            ServerCommand::Snapshot { id: 1, path: None },
            "snapshot",
            |reply| match reply {
                ServerReply::Snapshotted { entries, .. } if entries as usize >= resident.len() => {
                    Ok(())
                }
                other => Err(Box::new(other)),
            },
        )?;
        first.stop();
        reference
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take()); // the previous boot ends before the next is timed
        let started = Instant::now();
        let booted = Server::spawn(bin, Some(&store))?;
        let hits = plan_resident(booted.addr, resident, PlanOutcome::CacheHit)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if hits
            .iter()
            .zip(&reference)
            .any(|(hit, cold)| hit.plan != cold.plan)
        {
            return Err("warm boot served a plan that differs from the one snapshotted".into());
        }
        server = Some(booted);
    }
    Ok(Ready {
        server: server.expect("SETUP_REPEATS is at least one"),
        reference,
        setup_s,
        _scratch: Some(scratch),
    })
}

/// `elastic_churn`: spawn until the resident set is planned cold.
/// `cold_sweep` (empty `resident`): spawn until the server answers `Stats`.
fn setup_cold_boot(bin: &Path, resident: &[PlanRequest]) -> Result<Ready, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take()); // the previous boot ends before the next is timed
        let started = Instant::now();
        let server = Server::spawn(bin, None)?;
        let reference = if resident.is_empty() {
            ask(
                server.addr,
                ServerCommand::Stats { id: 1 },
                "stats",
                |reply| match reply {
                    ServerReply::Stats { .. } => Ok(Vec::new()),
                    other => Err(Box::new(other)),
                },
            )?
        } else {
            plan_resident(server.addr, resident, PlanOutcome::ColdPlanned)?
        };
        setup_s.push(started.elapsed().as_secs_f64());
        ready = Some((server, reference));
    }
    let (server, reference) = ready.expect("SETUP_REPEATS is at least one");
    Ok(Ready {
        server,
        reference,
        setup_s,
        _scratch: None,
    })
}

pub fn setup(workload: &str, bin: &Path, resident: &[PlanRequest]) -> Result<Ready, String> {
    match workload {
        "hit_zipf" => setup_hit_zipf(bin, resident),
        "elastic_churn" => setup_cold_boot(bin, resident),
        _ => setup_cold_boot(bin, &[]),
    }
}

/// FNV-64 of the request lines at the head of every connection's sequence.
fn input_digest(workload: &str, seed: &Rng, resident: &[PlanRequest]) -> String {
    let mut digest = Digest::new();
    let mut line = |command: ServerCommand| {
        digest.line(&serde_json::to_string(&command).expect("command serializes"));
    };
    for conn in 0..CLIENTS {
        match (workload, conn) {
            ("hit_zipf", _) | ("elastic_churn", 0) => {
                let mut stream = HitStream::new(seed, conn, resident);
                (0..HIT_PREFIX).for_each(|_| line(ServerCommand::Plan(stream.next_ranked().1)));
            }
            ("elastic_churn", _) => {
                let mut stream = ChurnStream::new(seed, conn);
                for _ in 0..CHURN_PREFIX_CYCLES {
                    let cycle = stream.next_cycle();
                    cycle
                        .plans
                        .into_iter()
                        .for_each(|p| line(ServerCommand::Plan(p)));
                    cycle
                        .deltas
                        .into_iter()
                        .for_each(|d| line(ServerCommand::Delta(d)));
                }
            }
            _ => {
                let mut stream = ColdStream::new(seed, conn);
                (0..COLD_PREFIX).for_each(|_| line(ServerCommand::Plan(stream.next_request())));
            }
        }
    }
    digest.hex()
}

/// What the generator threads of one run brought back.
struct Measured {
    /// Samples `latency_*` are taken over — and `ops_per_s`, unless
    /// `throughput` says otherwise.
    latency: Samples,
    throughput: Option<Samples>,
    /// `elastic_churn`: the read connection's hits, for the details line.
    reads: Samples,
    promotions: PrefixMean,
    /// Operations `promotions` must cover for `quality` to be valid.
    prefix_needed: usize,
    tally: Tally,
}

fn drive(
    workload: &str,
    seed: &Rng,
    addr: SocketAddr,
    resident: &[PlanRequest],
    reference: &[PlanResponse],
    seconds: f64,
) -> Result<Measured, String> {
    let mut conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| Conn::connect(addr))
        .collect::<Result<_, _>>()?;
    let window = Window::starting_now(config::WARMUP, seconds);
    let mut measured = Measured {
        latency: Samples::default(),
        throughput: None,
        reads: Samples::default(),
        promotions: PrefixMean::default(),
        prefix_needed: 0,
        tally: Tally::default(),
    };
    std::thread::scope(|scope| match workload {
        "hit_zipf" => {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let mut stream = HitStream::new(seed, i, resident);
                    scope.spawn(move || hit_loop(conn, &mut stream, reference, window))
                })
                .collect();
            for handle in handles {
                measured
                    .latency
                    .0
                    .extend(handle.join().expect("generator thread panicked").0);
            }
            // The quality of a hit is the quality of the plan it replays.
            reference
                .iter()
                .for_each(|r| measured.promotions.add(r.promotions_accepted));
            measured.prefix_needed = resident.len();
        }
        "cold_sweep" => {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let mut stream = ColdStream::new(seed, i);
                    scope.spawn(move || cold_loop(conn, &mut stream, window))
                })
                .collect();
            for handle in handles {
                let (samples, prefix) = handle.join().expect("generator thread panicked");
                measured.latency.0.extend(samples.0);
                measured.promotions = measured.promotions.merge(prefix);
            }
            measured.prefix_needed = CLIENTS * COLD_PREFIX;
        }
        _ => {
            let (read, write) = conns.split_at_mut(1);
            let (read, write) = (&mut read[0], &mut write[0]);
            let reader = scope.spawn(move || {
                let mut stream = HitStream::new(seed, 0, resident);
                hit_loop(read, &mut stream, reference, window)
            });
            let writer = scope.spawn(move || {
                let mut stream = ChurnStream::new(seed, 1);
                churn_loop(write, &mut stream, window)
            });
            measured.reads = reader.join().expect("generator thread panicked");
            let churned = writer.join().expect("generator thread panicked");
            measured.latency = churned.deltas;
            measured.throughput = Some(churned.writes);
            measured.promotions = churned.promotions;
            measured.prefix_needed =
                CHURN_PREFIX_CYCLES * (gen::CHURN_PLANS + gen::CHURN_PLANS * gen::CHURN_DELTAS);
        }
    });
    for conn in conns {
        measured.tally.absorb(conn.tally);
    }
    Ok(measured)
}

/// One untraced run of a serving workload.
pub fn run(workload: &str, seed: u64, seconds: f64, bin: &Path) -> Result<Outcome, String> {
    let rng = Rng::new(seed);
    let resident = if workload == "cold_sweep" {
        Vec::new()
    } else {
        gen::resident_set(&rng)
    };
    let digest = input_digest(workload, &rng, &resident);
    let mut ready = setup(workload, bin, &resident)?;
    let measured = drive(
        workload,
        &rng,
        ready.server.addr,
        &resident,
        &ready.reference,
        seconds,
    )?;

    // A dead child is never restarted: the run ends here, naming how it died.
    if let Some(status) = ready.server.exit_status() {
        return Err(format!(
            "qsync-serve ended before the run did ({status}); {} of {} operations had failed: {:?}",
            measured.tally.failed, measured.tally.attempted, measured.tally.notes
        ));
    }
    let peak_rss_mb = ready.server.peak_rss_mb()?;
    ready.server.stop();

    let mut problems = measured.tally.notes.clone();
    if measured.promotions.seen < measured.prefix_needed {
        problems.push(format!(
            "only {} of the {} prefix operations completed, so quality is not comparable",
            measured.promotions.seen, measured.prefix_needed
        ));
    }
    let latencies = measured.latency.latencies();
    let throughput = measured.throughput.as_ref().unwrap_or(&measured.latency);
    let tail = config::tail_percentile(workload);
    if stats::samples_beyond(latencies.len(), tail) < 10 {
        problems.push(format!(
            "{} latency samples cannot support p{tail}",
            latencies.len()
        ));
    }
    let correct = problems.is_empty() && measured.tally.failed == 0;
    // `elastic_churn`'s read side is reported, not gated: between two runs of
    // one seed its rate differs by up to 15%, whichever way the 2-core
    // scheduler happens to interleave the hits with the delta waves.
    let read_latencies = measured.reads.latencies();
    let reads = if read_latencies.is_empty() {
        json!(null)
    } else {
        json!({
            "hits_per_s": measured.reads.rate(seconds),
            "p50_us": stats::percentile(&read_latencies, 50.0),
            "p99_us": stats::percentile(&read_latencies, 99.0),
            "samples": read_latencies.len() as u64,
        })
    };
    let or_nan = |values: &[f64], p: f64| {
        if values.is_empty() {
            f64::NAN
        } else {
            stats::percentile(values, p)
        }
    };

    Ok(Outcome {
        correct,
        attempted: measured.tally.attempted,
        failed: measured.tally.failed,
        metrics: vec![
            ("setup_s", stats::median(&ready.setup_s)),
            ("peak_rss_mb", peak_rss_mb),
            ("ops_per_s", throughput.rate(seconds)),
            ("latency_p50_us", or_nan(&latencies, 50.0)),
            ("latency_tail_us", or_nan(&latencies, tail)),
            (
                "quality",
                measured.promotions.sum / measured.promotions.seen.max(1) as f64,
            ),
        ],
        detail: json!({
            "input_digest": digest,
            "latency_samples": latencies.len() as u64,
            "throughput_samples": throughput.0.len() as u64,
            "reads": reads,
            "tail_percentile": tail,
            "setup_s_each": ready.setup_s.clone(),
            "server_args": config::SERVER_ARGS.to_vec(),
            "server_env": format!("{}={}", config::POOL_PIN.0, config::POOL_PIN.1),
            "clients": CLIENTS as u64,
            "loop": "closed",
            "transport": "loopback tcp",
            "warmup_s": config::WARMUP.as_secs_f64(),
            "problems": problems,
        }),
    })
}

/// Load discarded at the head of the traced run's single-connection pass.
pub const PASS_WARMUP: Duration = Duration::from_millis(300);

/// For the traced run: one connection driving this workload's loop for
/// `seconds`, returning its round-trip samples.
pub fn single_connection_pass(
    workload: &str,
    seed: &Rng,
    addr: SocketAddr,
    resident: &[PlanRequest],
    reference: &[PlanResponse],
    seconds: f64,
) -> Result<(Samples, Tally), String> {
    let mut conn = Conn::connect(addr)?;
    let window = Window::starting_now(PASS_WARMUP, seconds);
    // Stream index CLIENTS: a sequence the measured connections never use.
    let samples = match workload {
        "hit_zipf" => hit_loop(
            &mut conn,
            &mut HitStream::new(seed, CLIENTS, resident),
            reference,
            window,
        ),
        "cold_sweep" => cold_loop(&mut conn, &mut ColdStream::new(seed, CLIENTS), window).0,
        _ => churn_loop(&mut conn, &mut ChurnStream::new(seed, CLIENTS), window).deltas,
    };
    Ok((samples, conn.tally))
}

/// The `Metrics` scrape of the traced run.
pub fn scrape(addr: SocketAddr) -> Result<qsync_api::MetricsSnapshot, String> {
    ask(
        addr,
        ServerCommand::Metrics { id: 1 },
        "metrics scrape",
        |reply| match reply {
            ServerReply::Metrics { metrics, .. } => Ok(metrics),
            other => Err(Box::new(other)),
        },
    )
}
