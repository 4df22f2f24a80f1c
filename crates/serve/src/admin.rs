//! The admin port: Prometheus-style text exposition of the server's metrics
//! over plain HTTP.
//!
//! A deliberately tiny, dependency-free HTTP/1.x responder: every request —
//! whatever its path — is answered with `200 OK`, `Content-Type:
//! text/plain; version=0.0.4`, and the [`PlanEngine`]'s full metrics
//! snapshot rendered by
//! [`MetricsSnapshot::render_prometheus`](qsync_obs::MetricsSnapshot::render_prometheus).
//! One short-lived connection per scrape (`Connection: close`), handled
//! sequentially on the calling thread: scrapers poll at second granularity,
//! so one slow reader delaying the next scrape beats spawning per-request
//! threads on a port that must never interfere with the serving path.
//!
//! The exposition is engine-scoped (cache, planner latencies, delta
//! pipeline, plus the transport/scheduler counters the engine's shared
//! [`ServeObs`](crate::metrics::ServeObs) accumulates); the wire `Metrics`
//! command returns the same snapshot plus the per-connection dynamics only
//! the live core knows (queue depths, subscriber backlogs).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::PlanEngine;

/// Serve metrics scrapes on an already-bound listener until it errors (the
/// caller owns the thread; see the `--admin-addr` flag of `qsync-serve`).
pub fn serve_admin(engine: Arc<PlanEngine>, listener: TcpListener) -> io::Result<()> {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // A misbehaving scraper must not wedge the admin loop.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = answer_scrape(&engine, stream);
    }
}

/// Read the request head (discarded beyond its end) and write one
/// plain-text metrics response.
fn answer_scrape(engine: &Arc<PlanEngine>, mut stream: TcpStream) -> io::Result<()> {
    // Drain the request head so the peer never sees a reset before reading
    // our response; the content is irrelevant (every path is the metrics
    // endpoint) and capped so a garbage peer cannot buffer unboundedly.
    let mut head = [0u8; 4096];
    let mut seen = 0;
    while seen < head.len() {
        let n = match stream.read(&mut head[seen..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        seen += n;
        if head[..seen].windows(4).any(|w| w == b"\r\n\r\n") || head[..seen].contains(&b'\n') {
            break;
        }
    }
    let body = engine.metrics_snapshot().render_prometheus();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_api::{ModelSpec, PlanRequest};
    use qsync_cluster::topology::ClusterSpec;

    fn scrape(addr: std::net::SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect admin");
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn admin_port_answers_http_scrapes_with_the_text_exposition() {
        let engine = PlanEngine::shared();
        let model = ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 };
        engine
            .plan(&PlanRequest::new(1, model.clone(), ClusterSpec::hybrid_small()))
            .expect("cold plan");
        engine
            .plan(&PlanRequest::new(2, model, ClusterSpec::hybrid_small()))
            .expect("cache hit");

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind admin port");
        let addr = listener.local_addr().expect("local addr");
        let serving = Arc::clone(&engine);
        std::thread::spawn(move || serve_admin(serving, listener));

        let response = scrape(addr);
        let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head/body split");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "unexpected status: {head}");
        assert!(head.contains("text/plain"), "unexpected content type: {head}");
        assert!(body.contains("qsync_cache_hits_total 1"), "missing hit counter:\n{body}");
        assert!(
            body.contains("# TYPE qsync_plan_latency_us histogram"),
            "missing plan latency histogram:\n{body}"
        );
        assert!(
            body.contains("qsync_plan_latency_us_count{kind=\"cold\"} 1"),
            "missing cold latency sample:\n{body}"
        );
        // A second scrape works: connections are per-scrape, not persistent.
        let again = scrape(addr);
        assert!(again.contains("qsync_cache_hits_total 1"), "second scrape failed:\n{again}");
    }
}
