//! `scaling` — runs the thread-scaling sweep and writes
//! `BENCH_scaling.json` at the workspace root. Exits 2 without sweeping
//! when the parallel backend has one worker thread.
//!
//! ```text
//! scaling [--scale N] [--threads 1,2,4,8] [--batches B] [--batch-size S]
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use graphbolt_bench::experiments::scaling::{run_scaling, to_json};
use graphbolt_bench::workloads::GraphSpec;

struct Args {
    scale: u32,
    threads: Vec<usize>,
    batches: usize,
    batch_size: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 20,
        threads: vec![1, 2, 4, 8],
        batches: 4,
        batch_size: 0, // 0 = derive from scale below
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--scale" => {
                args.scale = value("--scale").parse().unwrap_or_else(|_| die("bad --scale"));
            }
            "--threads" => {
                args.threads = value("--threads")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| die("bad --threads")))
                    .collect();
            }
            "--batches" => {
                args.batches = value("--batches")
                    .parse()
                    .unwrap_or_else(|_| die("bad --batches"));
            }
            "--batch-size" => {
                args.batch_size = value("--batch-size")
                    .parse()
                    .unwrap_or_else(|_| die("bad --batch-size"));
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.threads.is_empty() {
        die("--threads needs at least one entry");
    }
    if args.batch_size == 0 {
        // ~|E|/2^9 like the repro core sizes: big enough to refine real
        // frontiers, small enough to stay incremental.
        args.batch_size = (((1usize << args.scale) * 4) >> 9).max(1);
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2)
}

fn print_usage() {
    eprintln!("usage: scaling [--scale N] [--threads 1,2,4,8] [--batches B] [--batch-size S]");
}

fn main() {
    let args = parse_args();
    let spec = GraphSpec::at_scale(args.scale);
    eprintln!(
        "[scaling] rmat scale {} | threads {:?} | {} batches x {} mutations",
        args.scale, args.threads, args.batches, args.batch_size
    );
    let rows = run_scaling(spec, &args.threads, args.batches, args.batch_size)
        .unwrap_or_else(|msg| die(&msg));
    for row in &rows {
        eprintln!(
            "[scaling] t={} initial {:.3}s refine {:.3}s (tag {:.1}ms, propagate {:.1}ms, \
             apply {:.1}ms)",
            row.threads,
            row.initial_secs,
            row.refine_secs,
            row.phases.tag as f64 / 1e6,
            row.phases.propagate as f64 / 1e6,
            row.phases.apply as f64 / 1e6,
        );
    }
    let json = to_json(spec, args.batch_size, &rows);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scaling.json");
    std::fs::write(&path, json).expect("write BENCH_scaling.json");
    eprintln!("wrote {}", path.display());
}
