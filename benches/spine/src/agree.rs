//! `spine agree A.json B.json`: do two result sets tell the same story,
//! by the bounds `BENCHMARK.json` fixes?

use crate::json::{self, Value};

/// One compared `(workload, metric)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// Value in the first set (the base of `change`).
    pub a: f64,
    /// Value in the second set.
    pub b: f64,
    /// `|b − a| / a`.
    pub change: f64,
    /// The metric's bound from `BENCHMARK.json`.
    pub bound: f64,
}

impl Row {
    /// Whether the two values differ by no more than the bound.
    pub fn agrees(&self) -> bool {
        self.change <= self.bound
    }
}

fn metric_value(results: &Value, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .num()
}

/// Compares every end-to-end metric of every workload both sets hold.
///
/// # Errors
///
/// Malformed documents, a metric missing from one side, or two sets
/// with no workload in common.
pub fn compare(benchmark: &str, a: &str, b: &str) -> Result<Vec<Row>, String> {
    let benchmark = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let a = json::parse(a).map_err(|e| format!("first result set: {e}"))?;
    let b = json::parse(b).map_err(|e| format!("second result set: {e}"))?;
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Value::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a
        .get("workloads")
        .and_then(Value::obj)
        .ok_or("first result set has no workloads")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        if b.get("workloads").and_then(|w| w.get(workload)).is_none() {
            continue;
        }
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::str)
                .ok_or("end_to_end entry has no name")?;
            let bound = m
                .get("bound")
                .and_then(Value::num)
                .ok_or("end_to_end entry has no bound")?;
            let side = |set: &Value, which: &str| {
                metric_value(set, workload, name)
                    .ok_or(format!("{which} result set lacks {workload}.{name}"))
            };
            let (va, vb) = (side(&a, "first")?, side(&b, "second")?);
            rows.push(Row {
                workload: workload.clone(),
                metric: name.to_string(),
                a: va,
                b: vb,
                change: (vb - va).abs() / va.abs(),
                bound,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two result sets share no workload".to_string());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end":[
        {"name":"setup_s","unit":"s","better":"lower","bound":0.25},
        {"name":"updates_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;

    fn results(setup: f64, rate: f64) -> String {
        format!(
            r#"{{"workloads":{{"bulk":{{"metrics":{{"setup_s":{{"value":{setup},"unit":"s"}},
            "updates_per_s":{{"value":{rate},"unit":"1/s"}}}}}}}}}}"#
        )
    }

    #[test]
    fn within_bounds_agrees_and_beyond_disagrees_either_way() {
        let rows = compare(BENCHMARK, &results(1.0, 1000.0), &results(1.2, 950.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(Row::agrees), "{rows:?}");
        let rows = compare(BENCHMARK, &results(1.0, 1000.0), &results(1.0, 1200.0)).unwrap();
        assert!(rows[0].agrees() && !rows[1].agrees(), "{rows:?}");
    }

    #[test]
    fn missing_metrics_and_disjoint_sets_are_errors() {
        let empty = r#"{"workloads":{"bulk":{"metrics":{}}}}"#;
        assert!(compare(BENCHMARK, &results(1.0, 1.0), empty).is_err());
        let other = r#"{"workloads":{"mixed":{"metrics":{}}}}"#;
        assert!(compare(BENCHMARK, &results(1.0, 1.0), other).is_err());
    }
}
