//! End-to-end checks of the `spine` binary itself: a smoke pass of all
//! four workloads plus the traced run, the driver's one-workload
//! contract against `BENCHMARK.json`, `spine agree`'s exit codes, and
//! that a child never outlives its parent's interest in it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use graphbolt_graph::{io, Edge};
use graphbolt_spine::child::Child;
use graphbolt_spine::json::{self, Value};

const SPINE: &str = env!("CARGO_BIN_EXE_spine");

/// A fresh directory under cargo's per-target scratch space, one per test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spine-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spine(args: &[&str]) -> Output {
    Command::new(SPINE).args(args).output().expect("run spine")
}

fn last_line(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().expect("spine printed nothing")).expect("last line is JSON")
}

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn names(list: &Value) -> Vec<String> {
    list.arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().str().unwrap().to_string())
        .collect()
}

fn keys(object: &Value) -> Vec<String> {
    object
        .obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// Every metric is `{"value": finite number, "unit": string}`.
fn assert_metric_shapes(metrics: &Value) {
    for (name, m) in metrics.obj().unwrap() {
        assert_eq!(keys(m), ["value", "unit"], "{name}");
        assert!(
            m.get("value").unwrap().num().is_some_and(f64::is_finite),
            "{name}: {m:?}"
        );
        assert!(m.get("unit").unwrap().str().is_some(), "{name}");
    }
}

#[test]
fn smoke_pass_runs_everything_and_writes_the_documented_files() {
    let out = scratch("smoke");
    let run = spine(&[
        "run",
        "--smoke",
        "--seed",
        "7",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let line = last_line(&run);
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").unwrap().num(), Some(0.0));

    // Rows: `section metric value unit`.
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("mixed query_p50_ms ") && l.ends_with(" ms")));
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("layers ladder.bulk.unexplained_share ")));

    let results = json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    assert_eq!(results.get("seed").unwrap().num(), Some(7.0));
    assert!(results.get("host_cores").unwrap().num().unwrap() >= 1.0);
    let backend = results.get("parallel_backend").unwrap().str().unwrap();
    assert!(backend == "stub" || backend == "real");
    assert!(results.get("rustc").unwrap().str().is_some());
    let bench = benchmark();
    let workloads = results.get("workloads").unwrap();
    assert_eq!(keys(workloads), names(bench.get("workloads").unwrap()));
    for (name, section) in workloads.obj().unwrap() {
        assert_eq!(
            keys(section),
            ["correct", "attempted", "failed", "metrics"],
            "{name}"
        );
        assert!(
            section.get("attempted").unwrap().num().unwrap() >= 1.0,
            "{name}"
        );
        assert_eq!(
            keys(section.get("metrics").unwrap()),
            names(bench.get("end_to_end").unwrap())
        );
        assert_metric_shapes(section.get("metrics").unwrap());
    }
    assert_metric_shapes(results.get("layers").unwrap().get("metrics").unwrap());

    let trace = std::fs::read_to_string(out.join("trace-all.jsonl")).unwrap();
    assert!(trace.lines().count() > 10);
    for line in trace.lines() {
        let span = json::parse(line).unwrap();
        assert_eq!(keys(&span), ["name", "op", "start_ns", "end_ns", "parent"]);
        assert!(span.get("end_ns").unwrap().num() >= span.get("start_ns").unwrap().num());
    }
    assert!(trace.contains("\"frontdoor.query\"") && trace.contains("\"graph.apply_arc\""));
    assert!(!out.read_dir().unwrap().any(|e| e
        .unwrap()
        .file_name()
        .to_string_lossy()
        .starts_with("inputs-")));
}

#[test]
fn one_workload_runs_print_exactly_the_metrics_benchmark_json_lists() {
    let out = scratch("contract");
    let bench = benchmark();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = spine(&[
            "run",
            "--smoke",
            "--workload",
            "mixed",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let line = last_line(&run);
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        let mut printed = keys(line.get("metrics").unwrap());
        let mut listed = names(bench.get(list).unwrap());
        printed.sort();
        listed.sort();
        assert_eq!(printed, listed, "--trace {trace} against {list}");
        for m in bench.get(list).unwrap().arr().unwrap() {
            let name = m.get("name").unwrap().str().unwrap();
            let unit = line
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("unit")
                .unwrap();
            assert_eq!(unit, m.get("unit").unwrap(), "{name}");
        }
    }
    assert_eq!(
        bench
            .get("command")
            .unwrap()
            .arr()
            .unwrap()
            .last()
            .unwrap()
            .str(),
        Some("benches/spine/bench.sh")
    );
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let run = spine(&["run", "--workload", "nonesuch"]);
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
    assert!(!spine(&["frobnicate"]).status.success());
}

#[test]
fn agree_exits_zero_on_agreement_and_non_zero_on_disagreement() {
    let dir = scratch("agree");
    let bench = dir.join("BENCHMARK.json");
    std::fs::write(
        &bench,
        r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.2}]}"#,
    )
    .unwrap();
    let results = |value: f64| {
        format!(
            r#"{{"workloads":{{"bulk":{{"metrics":{{"setup_s":{{"value":{value},"unit":"s"}}}}}}}}}}"#
        )
    };
    let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
    std::fs::write(&a, results(1.0)).unwrap();
    std::fs::write(&b, results(1.1)).unwrap();
    std::fs::write(&c, results(1.5)).unwrap();
    let agree = |x: &Path, y: &Path| {
        spine(&[
            "agree",
            x.to_str().unwrap(),
            y.to_str().unwrap(),
            "--benchmark",
            bench.to_str().unwrap(),
        ])
    };
    let same = agree(&a, &b);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("setup_s"));
    let apart = agree(&a, &c);
    assert_eq!(apart.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&apart.stdout).contains("DISAGREE"));
}

fn tiny_graph(dir: &Path) -> String {
    let path = dir.join("tiny.txt");
    let edges = [
        Edge::new(0, 1, 1.0),
        Edge::new(1, 2, 1.0),
        Edge::new(2, 0, 1.0),
    ];
    io::write_edge_list(&path, &edges).unwrap();
    path.to_string_lossy().into_owned()
}

fn alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[test]
fn dropping_a_child_kills_and_reaps_it() {
    let dir = scratch("drop");
    let graph = tiny_graph(&dir);
    let child = Child::spawn(Path::new(SPINE), &["pagerank", "--graph", &graph]).unwrap();
    let pid = child.pid();
    assert!(alive(pid));
    assert!(child.peak_rss_mb().unwrap() > 0.0);
    drop(child);
    assert!(!alive(pid), "child {pid} survived its handle");
}

#[test]
fn a_child_whose_parent_lets_go_of_stdin_exits_on_its_own() {
    let dir = scratch("orphan");
    let graph = tiny_graph(&dir);
    let mut child = Command::new(SPINE)
        .args([
            "serve-child",
            "pagerank",
            "--graph",
            &graph,
            "--serve",
            "--listen",
            "127.0.0.1:0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    // What the kernel does to the pipe when the parent dies.
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("orphaned child kept serving");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(3));
}
