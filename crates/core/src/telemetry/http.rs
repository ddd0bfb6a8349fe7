//! Tiny std-only HTTP machinery: request parsing, response writing, and
//! the `/metrics` + `/metrics/json` + `/healthz` scrape endpoint.
//!
//! Serves from a background thread over `std::net::TcpListener` — no
//! async runtime, no HTTP library, no TLS. Requests are answered one at
//! a time and oversized or slow peers are dropped via read timeouts.
//! Bind to port 0 to let the OS pick (tests do);
//! [`MetricsServer::local_addr`] reports the actual socket.
//!
//! The [`Request`]/[`respond`]/[`route_observability`] building blocks
//! are shared with [`crate::frontdoor`], which mounts the same
//! observability routes next to its mutation/query endpoints.

// Owns exactly one thread: the metrics listener.
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use graphbolt_engine::parallel::WorkCounter;

use crate::stats::EngineStats;

/// Maximum accepted request body (1 MiB): the front door serves JSON
/// mutation batches, not uploads. Larger `Content-Length`s are rejected
/// at parse time.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Maximum header count parsed before the rest is ignored.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP/1.1 request: enough of the protocol for a JSON service
/// (request line, headers, `Content-Length`-framed body). Everything
/// else — chunked encoding, keep-alive, continuations — is out of
/// scope; responses always close the connection.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Raw request target, query string included (`/query?vertex=3`).
    pub target: String,
    /// Headers as (lower-cased name, trimmed value) pairs.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request off `stream`. `None` means the peer is not
    /// speaking intelligible HTTP (empty read, unparsable request line,
    /// oversized or missing body) — callers drop the connection or
    /// answer 400 as their protocol dictates.
    pub fn read_from(stream: &mut TcpStream) -> Option<Self> {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let mut parts = line.split_whitespace();
        let method = parts.next()?.to_string();
        let target = parts.next()?.to_string();
        let mut headers = Vec::new();
        loop {
            let mut h = String::new();
            if reader.read_line(&mut h).is_err() || h.trim_end().is_empty() {
                break;
            }
            if headers.len() < MAX_HEADERS {
                if let Some((k, v)) = h.split_once(':') {
                    headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
                }
            }
        }
        let request = Self {
            method,
            target,
            headers,
            body: Vec::new(),
        };
        let len = match request.header("content-length") {
            Some(v) => v.parse::<usize>().ok()?,
            None => 0,
        };
        if len > MAX_BODY_BYTES {
            return None;
        }
        let mut body = vec![0u8; len];
        if len > 0 {
            reader.read_exact(&mut body).ok()?;
        }
        Some(Self { body, ..request })
    }

    /// First value of `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target with any query string stripped (`/query?vertex=3` →
    /// `/query`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The value of query parameter `key`, if present (no
    /// percent-decoding — the front door's parameters are numeric).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let (_, query) = self.target.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Writes one `Connection: close` HTTP/1.1 response. I/O errors are
/// swallowed — the peer retries; the session must not notice.
pub fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len(),
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    let _ = write!(stream, "{head}\r\n{body}");
    let _ = stream.flush();
}

/// Routes the observability paths every GraphBolt endpoint exposes,
/// answering from `stats` (one engine's registry and span recorder).
/// Returns `(status, content-type, body)`, or `None` for paths the
/// caller owns.
pub fn route_observability(
    path: &str,
    stats: &EngineStats,
) -> Option<(&'static str, &'static str, String)> {
    match path {
        "/metrics" => Some((
            "200 OK",
            // The text exposition format content type, version 0.0.4.
            "text/plain; version=0.0.4; charset=utf-8",
            stats.metrics().render_prometheus(),
        )),
        "/metrics/json" | "/json" => {
            Some(("200 OK", "application/json", stats.metrics().render_json()))
        }
        "/healthz" => Some(("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())),
        // Flight recorder: recently completed span trees plus orphan /
        // eviction bookkeeping (the CI overload gate scrapes this).
        "/debug/flight" => Some(("200 OK", "application/json", stats.spans().flight_json())),
        // Latest per-batch critical-path attribution.
        "/debug/critical" => Some(("200 OK", "application/json", stats.spans().critical_json())),
        _ => None,
    }
}

/// Handle to a running metrics endpoint. Dropping it (without
/// [`MetricsServer::detach`]) shuts the server down.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    /// 1 once shutdown is requested; the accept loop re-checks after
    /// every connection.
    stop: Arc<WorkCounter>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, port 0 for OS-assigned) and
    /// starts answering scrapes of `stats` on a background thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, stats: EngineStats) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(WorkCounter::new());
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gb-metrics".to_string())
            .spawn(move || accept_loop(listener, &stop_thread, &stats))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The socket actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Leaves the endpoint serving for the remaining life of the
    /// process (the CLI serve mode wants scrapes to keep working after
    /// the stream replay finishes).
    pub fn detach(mut self) -> SocketAddr {
        self.handle.take();
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.set(1);
        // Wake the blocking accept with a throwaway connection; if the
        // connect fails the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, stop: &WorkCounter, stats: &EngineStats) {
    for conn in listener.incoming() {
        if stop.get() != 0 {
            break;
        }
        let Ok(stream) = conn else {
            continue;
        };
        // A stalled scraper must not wedge the endpoint.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        serve_one(stream, stats);
    }
}

/// Answers a single request; all I/O errors are swallowed (the scraper
/// retries, the session must not notice).
fn serve_one(mut stream: TcpStream, stats: &EngineStats) {
    let Some(request) = Request::read_from(&mut stream) else {
        return;
    };
    let (status, content_type, body) = route_observability(request.path(), stats).unwrap_or((
        "404 Not Found",
        "text/plain; charset=utf-8",
        "not found\n".to_string(),
    ));
    respond(&mut stream, status, content_type, &[], &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    #[test]
    fn serves_metrics_json_and_health() {
        let server = MetricsServer::bind("127.0.0.1:0", EngineStats::new()).expect("bind");
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.ends_with("ok\n"));

        let prom = get(addr, "/metrics");
        assert!(prom.starts_with("HTTP/1.1 200"), "{prom}");
        assert!(prom.contains("text/plain; version=0.0.4"));
        assert!(prom.contains("# TYPE graphbolt_batches_applied_total counter"));
        assert!(prom.contains("graphbolt_batch_refine_ns_bucket{le=\"+Inf\"}"));

        let json = get(addr, "/metrics/json");
        assert!(json.contains("application/json"));
        assert!(json.contains("\"graphbolt_batches_applied_total\""));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
    }

    #[test]
    fn shutdown_releases_the_port() {
        let server = MetricsServer::bind("127.0.0.1:0", EngineStats::new()).expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown the listener is closed: rebinding the same
        // address succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }
}
