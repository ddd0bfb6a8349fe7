//! `spine run | agree | serve-child` — see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use graphbolt_spine::report::{self, Host, LAYERS};
use graphbolt_spine::workloads::{self, Ctx, Outcome, WORKLOADS};
use graphbolt_spine::{agree, child, layers};

const USAGE: &str =
    "usage: spine run [--workload interactive|bulk|mixed|engine] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out DIR]
       spine agree A.json B.json [--benchmark BENCHMARK.json]
       spine serve-child <gbolt arguments>";

/// R-MAT scale and seconds per workload: the sized run, and `--smoke`.
const FULL: (u32, f64) = (16, 20.0);
const SMOKE: (u32, f64) = (10, 1.0);

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value\n{USAGE}"));
        let number = |s: &String| {
            s.parse::<f64>()
                .map_err(|_| format!("cannot parse {s:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| format!("bad --seed\n{USAGE}"))?
            }
            "--seconds" => parsed.seconds = Some(number(value()?)?).filter(|s| *s > 0.0),
            "--trace" => parsed.trace = number(value()?)? != 0.0,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (expected one of {WORKLOADS:?})"
            ));
        }
    }
    Ok(parsed)
}

/// One workload with tracing off, the traced run alone, or — with no
/// workload named — everything.
fn measure(
    ctx: &Ctx,
    label: Option<&str>,
    trace: bool,
    out: &std::path::Path,
) -> Result<Vec<(String, Outcome)>, String> {
    let untraced: Vec<&str> = match (label, trace) {
        (Some(_), true) => Vec::new(),
        (Some(w), false) => vec![w],
        (None, _) => WORKLOADS.to_vec(),
    };
    let mut sections = Vec::new();
    for workload in untraced {
        let outcome = workloads::run(ctx, workload)?;
        report::print_rows(workload, &outcome);
        sections.push((workload.to_string(), outcome));
    }
    if label.is_none() || trace {
        let trace_file = out.join(format!("trace-{}.jsonl", label.unwrap_or("all")));
        let outcome = layers::traced(ctx, &trace_file)?;
        report::print_rows(LAYERS, &outcome);
        sections.push((LAYERS.to_string(), outcome));
    }
    Ok(sections)
}

/// Runs what was asked for; `Ok(false)` means it ran but an output was wrong.
fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let (scale, default_seconds) = if args.smoke { SMOKE } else { FULL };
    let seconds = args.seconds.unwrap_or(default_seconds);
    let out = args.out.unwrap_or_else(|| {
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("spine")
    });
    let dir = out.join(format!("inputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        exe: std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?,
        dir: dir.clone(),
        scale,
        seed: args.seed,
        seconds,
    };

    let measured = measure(&ctx, args.workload.as_deref(), args.trace, &out);
    // The generated inputs go whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&dir);
    let sections = measured?;

    let results = out.join("results.json");
    let document = report::results_json(args.seed, scale, seconds, &Host::probe(), &sections);
    std::fs::write(&results, document).map_err(|e| format!("{}: {e}", results.display()))?;
    println!("{}", report::final_line(&sections));
    Ok(sections.iter().all(|(_, o)| report::correct(o)))
}

fn agree(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it
                .next()
                .ok_or(format!("--benchmark requires a value\n{USAGE}"))?
                .clone();
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let rows = agree::compare(&read(&benchmark)?, &read(a)?, &read(b)?)?;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<16} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            r.bound * 100.0,
            if r.agrees() { "" } else { "  DISAGREE" }
        );
    }
    Ok(rows.iter().all(agree::Row::agrees))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "agree" => agree(rest),
        Some((cmd, rest)) if cmd == "serve-child" => child::serve(rest.to_vec()).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("spine: {message}");
            ExitCode::from(2)
        }
    }
}
