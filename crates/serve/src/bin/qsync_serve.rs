//! `qsync-serve` — the plan-serving daemon and its one-shot mode.
//!
//! ```text
//! qsync-serve serve [--workers N] [--tcp ADDR] [--admin-addr ADDR]
//!                   [--cache-capacity N]
//!                   [--sched-policy fifo|drr] [--queue-cap N]
//!                   [--queue-cap-interactive N] [--queue-cap-batch N] [--queue-cap-background N]
//!                   [--shed-expired true|false] [--age-limit-ms N]
//!                   [--delta-window-ms N] [--plan-budget-evals N]
//!                   [--event-outbox-cap BYTES]
//!                   [--reactors N]
//!                   [--rate-limit-conn RATE[,BURST]] [--rate-limit-client RATE[,BURST]]
//!                   [--store PATH] [--snapshot-interval-ms N] [--follow ADDR]
//!     Serve protocol lines (legacy v0 objects or v1 envelopes; see
//!     docs/PROTOCOL.md): from stdin (default) or a TCP socket. Plan
//!     requests may carry optional "priority" ("Interactive"|"Batch"|
//!     "Background"), "client_id" (fair-share identity), "weight" (DRR
//!     share) and "deadline_ms" fields; the scheduler dispatches
//!     accordingly (EDF lane > classes, deficit round robin across clients
//!     within a class). --delta-window-ms batches near-concurrent
//!     elasticity events into one invalidation wave. --admin-addr serves
//!     Prometheus-style text metrics over HTTP on a separate port (see
//!     docs/OBSERVABILITY.md). --event-outbox-cap bounds a subscriber's
//!     un-flushed bytes before broadcast events are shed (replies are
//!     never dropped; see "The event stream" in docs/PROTOCOL.md).
//!     --reactors shards the TCP transport across N epoll reactor threads
//!     (default: the available cores); reactor 0 accepts and hands each
//!     connection to the least-loaded reactor, all sharing one core (see
//!     the "Transport" section of the README). --rate-limit-conn and
//!     --rate-limit-client arm token-bucket overload protection
//!     (commands/second, with an optional burst defaulting to the rate);
//!     a shed command is answered with a structured "rate_limited" error,
//!     never silently dropped. --age-limit-ms bounds how long a queued
//!     Batch/Background job can wait before it is dispatched ahead of the
//!     strict class order (starvation bound); --plan-budget-evals caps the
//!     brute-force initial pass per plan, committing the best setting found
//!     within the budget (cooperative preemption of cold plans).
//!     --store names the persistent plan-store snapshot file: it is
//!     warm-loaded on boot (a missing or corrupt file boots cold), is the
//!     default target of the Snapshot/Load admin commands, and is
//!     rewritten at shutdown; --snapshot-interval-ms adds periodic
//!     snapshots between those. --follow ADDR makes this server a replica
//!     of the primary at ADDR: it bootstraps its cache with FetchSnapshot
//!     and then mirrors the primary's adopt-subscribed event stream (see
//!     docs/PERSISTENCE.md).
//!
//! qsync-serve plan --model SPEC [--cluster SPEC] [--indicator NAME]
//!                  [--tolerance F] [--memory-fraction F]
//!     One-shot: plan and print the PlanResponse JSON to stdout.
//!
//! A flag the subcommand does not take is an error (exit 1), not a no-op.
//!
//! Model SPEC:   family[:batch[,extra]]   e.g. bert:2,16  resnet50:2,32  small_mlp
//! Cluster SPEC: a:V,T | b:V,T,MEMFRAC    e.g. a:2,2  b:2,2,0.3   (V100s, T4s)
//! ```

use std::io::{stdin, stdout, BufReader};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use qsync_cluster::topology::ClusterSpec;
use qsync_serve::{
    CacheConfig, FollowerConfig, IndicatorChoice, ModelSpec, PlanEngine, PlanRequest, PlanServer,
    SchedConfig, StoreConfig, TokenBucketConfig, TransportConfig,
};

fn parse_cluster(s: &str) -> Result<ClusterSpec, String> {
    let (kind, rest) = s.split_once(':').unwrap_or((s, ""));
    let nums: Vec<f64> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',')
            .map(|p| p.trim().parse::<f64>().map_err(|e| format!("bad number {p:?}: {e}")))
            .collect::<Result<_, _>>()?
    };
    let geti = |i: usize, default: usize| nums.get(i).map(|v| *v as usize).unwrap_or(default);
    match kind {
        "a" => Ok(ClusterSpec::cluster_a(geti(0, 2), geti(1, 2))),
        "b" => Ok(ClusterSpec::cluster_b(geti(0, 2), geti(1, 2), nums.get(2).copied().unwrap_or(0.3))),
        other => Err(format!("unknown cluster kind {other:?} (expected a:V,T or b:V,T,FRAC)")),
    }
}

fn parse_indicator(s: &str) -> Result<IndicatorChoice, String> {
    match s {
        "variance" | "qsync" => Ok(IndicatorChoice::Variance),
        "hessian" => Ok(IndicatorChoice::Hessian),
        "random" => Ok(IndicatorChoice::Random),
        other => Err(format!("unknown indicator {other:?} (variance|hessian|random)")),
    }
}

/// The flags `serve` takes.
#[rustfmt::skip]
const SERVE_FLAGS: &[&str] = &[
    "workers", "tcp", "admin-addr", "cache-capacity",
    "sched-policy", "queue-cap", "queue-cap-interactive", "queue-cap-batch", "queue-cap-background",
    "shed-expired", "age-limit-ms", "delta-window-ms", "plan-budget-evals",
    "event-outbox-cap", "reactors", "rate-limit-conn", "rate-limit-client",
    "store", "snapshot-interval-ms", "follow",
];

/// The flags `plan` takes.
const PLAN_FLAGS: &[&str] = &["model", "cluster", "indicator", "tolerance", "memory-fraction"];

/// Tiny flag parser: `--name value` pairs after the subcommand.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parse `args` against the subcommand's flag list; a name outside
    /// `known` is an error naming it and the valid ones.
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected --flag, got {flag:?}"));
            };
            if !known.contains(&name) {
                let valid: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                return Err(format!("unknown flag --{name} (valid: {})", valid.join(" ")));
            }
            let Some(value) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

fn build_request(id: u64, flags: &Flags) -> Result<PlanRequest, String> {
    let model = ModelSpec::parse(flags.get("model").unwrap_or("small_mlp"))?;
    let cluster = parse_cluster(flags.get("cluster").unwrap_or("a:2,2"))?;
    let mut request = PlanRequest::new(id, model, cluster);
    if let Some(ind) = flags.get("indicator") {
        request.indicator = parse_indicator(ind)?;
    }
    if let Some(tol) = flags.get("tolerance") {
        request.throughput_tolerance =
            Some(tol.parse().map_err(|e| format!("bad --tolerance: {e}"))?);
    }
    if let Some(frac) = flags.get("memory-fraction") {
        request.memory_limit_fraction =
            Some(frac.parse().map_err(|e| format!("bad --memory-fraction: {e}"))?);
    }
    Ok(request)
}

fn parse_sched_config(flags: &Flags) -> Result<SchedConfig, String> {
    let mut config = SchedConfig::default();
    if let Some(policy) = flags.get("sched-policy") {
        config.policy = policy.parse()?;
    }
    if let Some(cap) = flags.get("queue-cap") {
        let cap: usize = cap.parse().map_err(|e| format!("bad --queue-cap: {e}"))?;
        config.class_caps = [cap; 3];
    }
    for (i, class) in ["interactive", "batch", "background"].iter().enumerate() {
        if let Some(cap) = flags.get(&format!("queue-cap-{class}")) {
            config.class_caps[i] =
                cap.parse().map_err(|e| format!("bad --queue-cap-{class}: {e}"))?;
        }
    }
    if let Some(shed) = flags.get("shed-expired") {
        config.shed_expired = match shed {
            "true" | "1" => true,
            "false" | "0" => false,
            other => return Err(format!("bad --shed-expired {other:?} (true|false)")),
        };
    }
    if let Some(ms) = flags.get("age-limit-ms") {
        config.age_limit_ms =
            Some(ms.parse().map_err(|e| format!("bad --age-limit-ms: {e}"))?);
    }
    Ok(config)
}

/// Parse a `--rate-limit-*` value: `RATE` or `RATE,BURST` (commands per
/// second; burst defaults to the rate).
fn parse_token_bucket(flag: &str, value: &str) -> Result<TokenBucketConfig, String> {
    let (rate, burst) = match value.split_once(',') {
        Some((rate, burst)) => (rate, Some(burst)),
        None => (value, None),
    };
    let rate_per_sec: u64 =
        rate.trim().parse().map_err(|e| format!("bad --{flag} rate: {e}"))?;
    let burst: u64 = match burst {
        Some(b) => b.trim().parse().map_err(|e| format!("bad --{flag} burst: {e}"))?,
        None => rate_per_sec,
    };
    Ok(TokenBucketConfig { rate_per_sec, burst })
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let workers: usize =
        flags.get("workers").unwrap_or("8").parse().map_err(|e| format!("bad --workers: {e}"))?;
    let mut cache = CacheConfig::default();
    if let Some(capacity) = flags.get("cache-capacity") {
        cache.capacity = capacity.parse().map_err(|e| format!("bad --cache-capacity: {e}"))?;
    }
    let mut engine_config = PlanEngine::with_cache_config(cache);
    if let Some(budget) = flags.get("plan-budget-evals") {
        engine_config = engine_config.with_plan_budget(Some(
            budget.parse().map_err(|e| format!("bad --plan-budget-evals: {e}"))?,
        ));
    }
    let engine = Arc::new(engine_config);
    if let Some(admin_addr) = flags.get("admin-addr") {
        let listener = TcpListener::bind(admin_addr)
            .map_err(|e| format!("bind --admin-addr {admin_addr}: {e}"))?;
        eprintln!("qsync-serve: metrics on http://{}/metrics", listener.local_addr().unwrap());
        let admin_engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name("qsync-serve-admin".into())
            .spawn(move || {
                if let Err(e) = qsync_serve::serve_admin(admin_engine, listener) {
                    eprintln!("qsync-serve: admin port failed: {e}");
                }
            })
            .map_err(|e| format!("spawn admin thread: {e}"))?;
    }
    let delta_window_ms: u64 = flags
        .get("delta-window-ms")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("bad --delta-window-ms: {e}"))?;
    let mut server = PlanServer::with_sched(engine, workers, parse_sched_config(flags)?)
        .with_delta_window(Duration::from_millis(delta_window_ms));
    let mut transport = TransportConfig::default();
    if let Some(cap) = flags.get("event-outbox-cap") {
        transport.event_outbox_cap =
            cap.parse().map_err(|e| format!("bad --event-outbox-cap: {e}"))?;
    }
    // Default to one reactor per available core; the flag overrides.
    transport.reactors = match flags.get("reactors") {
        Some(n) => {
            let n: usize = n.parse().map_err(|e| format!("bad --reactors: {e}"))?;
            if n == 0 {
                return Err("--reactors must be at least 1".into());
            }
            n
        }
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    };
    if let Some(value) = flags.get("rate-limit-conn") {
        transport.rate_limit.per_conn = Some(parse_token_bucket("rate-limit-conn", value)?);
    }
    if let Some(value) = flags.get("rate-limit-client") {
        transport.rate_limit.per_client = Some(parse_token_bucket("rate-limit-client", value)?);
    }
    server = server.with_transport(transport);
    if let Some(path) = flags.get("store") {
        let mut store = StoreConfig::at(path);
        if let Some(ms) = flags.get("snapshot-interval-ms") {
            let ms: u64 = ms.parse().map_err(|e| format!("bad --snapshot-interval-ms: {e}"))?;
            store.snapshot_interval = Some(Duration::from_millis(ms));
        }
        server = server.with_store(store);
    } else if flags.get("snapshot-interval-ms").is_some() {
        return Err("--snapshot-interval-ms needs --store".into());
    }
    let _follower = match flags.get("follow") {
        Some(addr) => {
            let primary = addr
                .parse()
                .map_err(|e| format!("bad --follow address {addr:?}: {e}"))?;
            eprintln!("qsync-serve: following primary at {primary}");
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            Some(qsync_serve::follow(
                Arc::clone(server.engine()),
                FollowerConfig::new(primary),
                stop,
            ))
        }
        None => None,
    };
    match flags.get("tcp") {
        Some(addr) => {
            // The reactor multiplexes every connection on one thread; make
            // sure the fd budget, not the default soft ulimit, is the cap.
            match qsync_serve::transport::ensure_fd_limit(65_536) {
                Ok(limit) => eprintln!("qsync-serve: fd limit {limit}"),
                Err(e) => eprintln!("qsync-serve: could not raise fd limit: {e}"),
            }
            server.serve_tcp(addr).map_err(|e| e.to_string())
        }
        None => {
            let reader = BufReader::new(stdin());
            server.serve_lines(reader, stdout()).map_err(|e| e.to_string())
        }
    }
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    let request = build_request(0, flags)?;
    let engine = PlanEngine::new();
    let response = engine.plan(&request).map_err(|e| e.to_string())?;
    println!("{}", serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("usage: qsync-serve <serve|plan> [--flag value ...]");
            std::process::exit(2);
        }
    };
    let result = match command {
        "serve" => Flags::parse(rest, SERVE_FLAGS).and_then(|flags| cmd_serve(&flags)),
        "plan" => Flags::parse(rest, PLAN_FLAGS).and_then(|flags| cmd_plan(&flags)),
        other => Err(format!("unknown subcommand {other:?} (serve|plan)")),
    };
    if let Err(message) = result {
        eprintln!("qsync-serve: {message}");
        std::process::exit(1);
    }
}
