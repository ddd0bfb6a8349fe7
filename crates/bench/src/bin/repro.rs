//! `repro` — regenerates every table and figure of the GraphBolt paper's
//! evaluation section at laptop scale.
//!
//! ```text
//! repro <experiment> [--scale N] [--threads N]
//!
//! experiments:
//!   table1 fig2 fig4                 motivation (§2)
//!   table5 fig6 table6 table7        performance matrix (§5.2)
//!   fig7 table8                      sensitivity (§5.3)
//!   fig8 fig9                        system comparisons (§5.4)
//!   table9                           memory overhead (§5.5)
//!   structure                        graph-family sensitivity (§5.2 note)
//!   scaling                          thread-scaling sweep (DESIGN.md §3.6)
//!   ablation                         design-choice ablations
//!   all                              everything above
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use graphbolt_bench::experiments::{
    ablation, fig8, fig9, motivation, scaling, structure, table9, tables,
};
use graphbolt_bench::report::Table;
use graphbolt_bench::workloads::GraphSpec;

struct Args {
    experiment: String,
    scale: u32,
    threads: Option<usize>,
}

fn parse_args() -> Args {
    let mut experiment = String::from("all");
    let mut scale = GraphSpec::default_scale().scale;
    let mut threads = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs an integer"));
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&t: &usize| t > 0)
                        .unwrap_or_else(|| die("--threads needs a positive integer")),
                );
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
    }
    Args {
        experiment,
        scale,
        threads,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2)
}

fn print_usage() {
    eprintln!(
        "usage: repro <table1|fig2|fig4|table5|fig6|table6|table7|fig7|table8|fig8|fig9|table9|structure|scaling|ablation|all> [--scale N] [--threads N]"
    );
}

fn show(tables: Vec<Table>) {
    for t in tables {
        println!("{}", t.render());
    }
}

fn main() {
    let args = parse_args();
    if let Some(threads) = args.threads {
        // Best-effort: the global pool can only be sized once per
        // process; experiments that build scoped pools are unaffected.
        let _ = graphbolt_engine::parallel::set_global_threads(threads);
    }
    let spec = GraphSpec::at_scale(args.scale);
    // Batch sizes proportional to the synthetic graphs: the paper's
    // 1K/10K/100K batches on ~1B-edge inputs are ≤ 1e-4 of the edges, so
    // sizes here scale with the generated graph (≈ |E|/2^12, /2^9, /2^6).
    let edges_loaded = (1usize << spec.scale) * 4; // ~50% of edge_factor 8
    let rel = |shift: u32| (edges_loaded >> shift).max(1);
    let core_sizes = [rel(12), rel(9), rel(6)];
    let sweep_sizes = [1usize, rel(12), rel(10), rel(8), rel(6), rel(4)];
    let cmp_sizes = [1usize, rel(12), rel(10), rel(8), rel(6)];

    let run = |name: &str| {
        eprintln!("[repro] running {name} at scale {} ...", args.scale);
        match name {
            "table1" => show(vec![motivation::table1(spec, 10, 100)]),
            "fig2" => show(vec![motivation::fig2()]),
            "fig4" => show(vec![motivation::fig4(spec, 10)]),
            "table5" => show(vec![tables::table5(spec, &core_sizes)]),
            "fig6" => show(vec![tables::fig6(spec, &core_sizes)]),
            "table6" => show(tables::table6(spec, &[1, 2, 4], rel(9))),
            "table7" => show(vec![tables::table7(spec, &core_sizes)]),
            "fig7" => show(vec![tables::fig7(spec, &sweep_sizes)]),
            "table8" => show(vec![tables::table8(spec, rel(9))]),
            "fig8" => show(vec![fig8::fig8a(spec, &cmp_sizes), fig8::fig8b(spec, 100)]),
            "fig9" => show(vec![
                fig9::fig9a(spec, &cmp_sizes),
                fig9::fig9b(spec, &cmp_sizes),
            ]),
            "table9" => show(vec![table9::table9(spec)]),
            "structure" => show(vec![structure::structure(spec, rel(9))]),
            "scaling" => match scaling::run_scaling(spec, &[1, 2, 4, 8], 4, rel(9)) {
                Ok(rows) => show(vec![scaling::table(&rows)]),
                // `all` reports the refusal and moves on; asked for by
                // name, it is an error.
                Err(msg) if args.experiment == "all" => {
                    eprintln!("[repro] skipping scaling: {msg}");
                }
                Err(msg) => die(&msg),
            },
            "ablation" => show(vec![
                ablation::vertical_pruning(spec, rel(9)),
                ablation::horizontal_cutoff(spec, rel(9)),
                ablation::fused_delta(spec, rel(9)),
                ablation::min_strategies(spec, rel(9)),
            ]),
            other => die(&format!("unknown experiment {other}")),
        }
    };

    if args.experiment == "all" {
        for name in [
            "fig2",
            "fig4",
            "table1",
            "table5",
            "fig6",
            "table7",
            "fig7",
            "table8",
            "fig8",
            "fig9",
            "table9",
            "table6",
            "structure",
            "scaling",
            "ablation",
        ] {
            run(name);
        }
    } else {
        run(&args.experiment);
    }
}
