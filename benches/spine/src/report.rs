//! Output: the `workload metric value unit` rows, the one-line JSON
//! result the driver reads, and the `results.json` file `spine agree`
//! compares.

use std::fmt::Write as _;

use crate::json;
use crate::workloads::{Metric, Outcome};

/// Key under which the traced run is filed in `results.json`.
pub const LAYERS: &str = "layers";

/// Where and how a result set was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the OS offers this process.
    pub cores: usize,
    /// `stub` when rayon runs on one thread (the vendored sequential
    /// stand-in, or a one-core host), else `real`.
    pub parallel_backend: &'static str,
    /// `rustc --version`, if a `rustc` is on the path.
    pub rustc: String,
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Self {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Self {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            parallel_backend: if rayon::current_num_threads() > 1 {
                "real"
            } else {
                "stub"
            },
            rustc,
        }
    }
}

/// Whether the section's outputs were all verified correct.
pub fn correct(outcome: &Outcome) -> bool {
    outcome.mismatches == 0
}

/// Prints one `section metric value unit` row per metric, then the
/// section's op tally.
pub fn print_rows(section: &str, outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{section} {} {} {}", m.name, json::number(m.value), m.unit);
    }
    println!("{section} ops_attempted {} count", outcome.attempted);
    println!("{section} ops_failed {} count", outcome.failed);
}

fn section_object(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(&m.name),
            json::number(m.value),
            json::quote(m.unit)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        correct(outcome),
        outcome.attempted,
        outcome.failed,
    )
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`. With several
/// sections the tallies are summed and the metric names prefixed
/// `section.`.
pub fn final_line(sections: &[(String, Outcome)]) -> String {
    if let [(_, only)] = sections {
        return section_object(only);
    }
    let mut total = Outcome::default();
    for (section, outcome) in sections {
        total.attempted += outcome.attempted;
        total.failed += outcome.failed;
        total.mismatches += outcome.mismatches;
        total.metrics.extend(outcome.metrics.iter().map(|m| Metric {
            name: format!("{section}.{}", m.name),
            ..m.clone()
        }));
    }
    section_object(&total)
}

/// The `results.json` document.
pub fn results_json(
    seed: u64,
    scale: u32,
    seconds: f64,
    host: &Host,
    sections: &[(String, Outcome)],
) -> String {
    let mut workloads = String::new();
    let mut layers = String::from("null");
    for (section, outcome) in sections {
        if section == LAYERS {
            layers = section_object(outcome);
            continue;
        }
        if !workloads.is_empty() {
            workloads.push(',');
        }
        let _ = write!(
            workloads,
            "\n    {}:{}",
            json::quote(section),
            section_object(outcome)
        );
    }
    format!(
        "{{\n  \"seed\":{seed},\n  \"scale\":{scale},\n  \"seconds\":{},\n  \"host_cores\":{},\n  \
         \"parallel_backend\":{},\n  \"rustc\":{},\n  \"workloads\":{{{workloads}\n  }},\n  \"layers\":{layers}\n}}\n",
        json::number(seconds),
        host.cores,
        json::quote(host.parallel_backend),
        json::quote(&host.rustc),
    )
}
