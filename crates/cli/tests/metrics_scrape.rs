//! Serve-mode observability acceptance: a session run with
//! `--metrics-addr` must answer `/metrics` with well-formed Prometheus
//! text exposing the refinement-latency histogram, edge-computation
//! counters, and the queue/degrade gauges — scraped here over real TCP
//! after replaying a known mutation stream and serving one front-door
//! update, together with `/debug/critical` in exactly its documented
//! key set. `--trace-out` must hold every completed span tree, one per
//! line, in the schema `/debug/flight` serves and `gbolt trace` renders.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use graphbolt_cli::{run, Options};
use graphbolt_graph::{io, Edge, MutationBatch};

fn request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").expect("headers + body");
    Ok((head.to_string(), body.to_string()))
}

fn http_get(addr: &str, path: &str) -> (String, String) {
    request(addr, "GET", path, "").expect("GET against a live endpoint")
}

/// Every non-comment line of a Prometheus text exposition must be
/// `name[{labels}] value` with a numeric value; `# HELP`/`# TYPE`
/// comments must name a `graphbolt_`-prefixed metric.
fn assert_valid_prometheus(body: &str) {
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.split_whitespace();
            let keyword = words.next().unwrap_or_default();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unexpected comment: {line}"
            );
            let name = words.next().unwrap_or_default();
            assert!(
                name.starts_with("graphbolt_"),
                "metric {name} misses the graphbolt_ prefix: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let name = series.split('{').next().unwrap();
        assert!(
            name.starts_with("graphbolt_")
                && name
                    .trim_start_matches("graphbolt_")
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_'),
            "malformed series name in: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "non-numeric sample value in: {line}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition must not be empty:\n{body}");
}

fn sample_value(body: &str, series_prefix: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(series_prefix))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// `(key, raw value)` pairs of a flat JSON object whose values are
/// numbers or comma-free strings — the shape `/debug/critical` serves.
fn flat_json_fields(body: &str) -> Vec<(&str, &str)> {
    let inner = body
        .trim()
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not a JSON object: {body}"));
    inner
        .split(',')
        .map(|field| {
            let (key, value) = field.split_once(':').expect("key:value");
            (key.trim_matches('"'), value)
        })
        .collect()
}

#[test]
fn serve_mode_exposes_scrapable_metrics() {
    let dir = std::env::temp_dir().join("gbolt-metrics-scrape");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("g.txt");
    io::write_edge_list(
        &graph_path,
        &[
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 1.0),
            Edge::new(2, 0, 1.0),
            Edge::new(2, 3, 1.0),
        ],
    )
    .unwrap();
    // A known stream: one insertion batch, one deletion batch.
    let mut b1 = MutationBatch::new();
    b1.add(Edge::new(3, 0, 1.0));
    let mut b2 = MutationBatch::new();
    b2.delete(Edge::new(2, 3, 1.0));
    let stream_path = dir.join("s.gbms");
    io::write_batches(&stream_path, &[b1, b2]).unwrap();
    let trace_path = dir.join("trace.jsonl");

    // Reserve a port for --listen: the bound address only reaches the
    // report after shutdown, too late to drive a request at it.
    let door = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let server = std::thread::spawn({
        let opts = Options {
            algorithm: "pagerank".into(),
            graph: graph_path.to_string_lossy().into_owned(),
            stream: Some(stream_path.to_string_lossy().into_owned()),
            serve: true,
            listen: Some(door.clone()),
            metrics_addr: Some("127.0.0.1:0".into()),
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        move || run(&opts)
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let healthy = |addr: &str| {
        request(addr, "GET", "/healthz", "").is_ok_and(|(head, _)| head.starts_with("HTTP/1.1 200"))
    };
    while !healthy(&door) {
        assert!(!server.is_finished(), "server exited early: {:?}", server.join());
        assert!(Instant::now() < deadline, "front door never became healthy");
        std::thread::sleep(Duration::from_millis(20));
    }
    // One traced request through the front door, then drain.
    let (head, _) = request(&door, "POST", "/update", "{\"src\":1,\"dst\":3}").unwrap();
    assert!(head.starts_with("HTTP/1.1 202"), "{head}");
    let (head, _) = request(&door, "GET", "/query?vertex=3", "").unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let (head, _) = request(&door, "POST", "/shutdown", "").unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let report = server.join().expect("serve thread").unwrap();

    // The report names the bound endpoint (port 0 was resolved).
    let addr = report
        .lines()
        .find_map(|l| l.strip_prefix("metrics endpoint: http://"))
        .and_then(|l| l.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("no metrics endpoint line in report:\n{report}"))
        .to_string();

    let (head, body) = http_get(&addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head.contains("text/plain"),
        "Prometheus text content type expected: {head}"
    );
    assert_valid_prometheus(&body);

    // The acceptance series: refinement-latency histogram, edge
    // counters, queue occupancy, degrade level.
    assert!(
        body.contains("graphbolt_batch_refine_ns_bucket{le=\""),
        "refinement latency histogram missing:\n{body}"
    );
    assert!(sample_value(&body, "graphbolt_batch_refine_ns_count").unwrap() >= 2.0);
    assert!(
        sample_value(&body, "graphbolt_edge_computations_total").unwrap() > 0.0,
        "edge computations must be counted"
    );
    assert!(sample_value(&body, "graphbolt_mutations_applied_total").unwrap() >= 2.0);
    assert!(sample_value(&body, "graphbolt_queue_occupancy").is_some());
    assert_eq!(sample_value(&body, "graphbolt_degrade_level"), Some(0.0));
    assert!(
        sample_value(&body, "graphbolt_refine_tag_ns_count").unwrap() > 0.0,
        "per-phase refinement histograms must be populated"
    );
    // Only what the served path runs is exported: the BSP driver does
    // not go through `edge_map`, so no series may claim to observe it.
    assert!(
        !body.contains("graphbolt_edge_map_"),
        "edge_map series on the served path:\n{body}"
    );

    // The critical-path report of the served update's batch: exactly
    // this key set, and the phases fit inside the batch root.
    let (head, critical) = http_get(&addr, "/debug/critical");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let fields = flat_json_fields(&critical);
    let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        keys,
        [
            "batches",
            "trace_id",
            "total_ns",
            "structure_ns",
            "tag_ns",
            "propagate_ns",
            "apply_ns",
            "dominant_phase",
            "fan_in",
            "checkpoint_ns",
        ],
        "{critical}"
    );
    let ns = |key: &str| -> u64 {
        let (_, v) = fields.iter().find(|(k, _)| *k == key).unwrap();
        v.parse().unwrap_or_else(|_| panic!("{key} is not a count: {critical}"))
    };
    assert!(ns("batches") >= 3, "two replayed batches + the served update: {critical}");
    assert!(
        ns("structure_ns") + ns("tag_ns") + ns("propagate_ns") + ns("apply_ns") <= ns("total_ns"),
        "phases exceed the batch root: {critical}"
    );

    // Liveness and JSON exposition on the same endpoint.
    let (head, body) = http_get(&addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    let (head, body) = http_get(&addr, "/metrics/json");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.starts_with('{') && body.trim_end().ends_with('}'), "{body}");
    assert!(body.contains("\"graphbolt_batches_applied_total\""), "{body}");

    // The stats subcommand scrapes the same endpoint.
    let stats = run(&Options {
        algorithm: "stats".into(),
        metrics_addr: Some(addr.clone()),
        ..Options::default()
    })
    .unwrap();
    assert!(stats.contains("graphbolt_batch_refine_ns"), "{stats}");

    // --trace-out holds one completed span tree per line: the stream
    // replay's batch trees (structure + refinement phases) and the
    // front-door requests' trees.
    let trace = std::fs::read_to_string(Path::new(&trace_path)).unwrap();
    let batch = trace
        .lines()
        .find(|l| l.contains("\"kind\":\"batch\""))
        .unwrap_or_else(|| panic!("no batch tree in:\n{trace}"));
    for name in ["refine_batch", "structure", "tag", "propagate", "apply"] {
        assert!(
            batch.contains(&format!("\"name\":\"{name}\"")),
            "no {name} span: {batch}"
        );
    }
    assert!(
        trace
            .lines()
            .any(|l| l.contains("\"kind\":\"request\"") && l.contains("\"name\":\"admit\"")),
        "no request tree in:\n{trace}"
    );
    // One writer, one schema: each line is verbatim an element of the
    // /debug/flight ring, and survives the renderer `gbolt trace` puts
    // /debug/flight through (whitespace is all it adds).
    let (head, flight) = http_get(&addr, "/debug/flight");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let rendered: String = run(&Options {
        algorithm: "trace".into(),
        metrics_addr: Some(addr),
        ..Options::default()
    })
    .unwrap()
    .split_whitespace()
    .collect();
    for line in trace.lines() {
        assert!(
            line.starts_with("{\"trace_id\":") && line.ends_with("]}"),
            "malformed line: {line}"
        );
        assert!(flight.contains(line), "{line}\nnot in /debug/flight:\n{flight}");
        assert!(rendered.contains(line), "{line}\nnot in `gbolt trace`:\n{rendered}");
    }
}
