//! `compare <a> <b>`: judges result set `b` against result set `a`.
//!
//! A result set is what `run --out <file>` appends: one line per run,
//! `{"workload", "seed", "trace", "result"}`. Only untraced runs carry
//! end-to-end metrics, so only those are read. One row per workload ×
//! end-to-end metric: both medians with their quartiles, the relative
//! worsening, the bound, and a verdict —
//!
//! - `unresolved`: either side's run-to-run spread (first to third
//!   quartile, as a share of the median) is wider than the bound, so the
//!   sets cannot tell a regression of that size from noise;
//! - `worse`: `b`'s median is worse than `a`'s by more than the bound;
//! - `ok` otherwise.

use crate::json::{self, Value};
use crate::report::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::io::Write;

/// Values per (workload, metric), in file order.
pub type ResultSet = BTreeMap<(String, String), Vec<f64>>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

pub fn parse_result_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let record = json::parse(line).map_err(|e| bad(&e))?;
        if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no result.metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    if spread(a).max(spread(b)) > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric, qa[1], qb[1]) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the table; returns the verdict of every row.
pub fn compare(a: &ResultSet, b: &ResultSet, out: &mut impl Write) -> Result<Vec<Verdict>, String> {
    let io = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "{:<13} {:<19} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "worse by", "bound"
    )
    .map_err(io)?;
    let mut verdicts = Vec::new();
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!(
                    "{workload}/{}: missing from a result set",
                    metric.name
                ));
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!("{workload}/{}: fewer than two runs", metric.name));
            }
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let verdict = judge(metric, va, vb);
            let cell = |q: [f64; 3]| format!("{:.5} [{:.5}, {:.5}]", q[1], q[0], q[2]);
            writeln!(
                out,
                "{:<13} {:<19} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {}",
                workload,
                metric.name,
                cell(qa),
                cell(qb),
                worsening(metric, qa[1], qb[1]) * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            )
            .map_err(io)?;
            verdicts.push(verdict);
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: &EndToEnd = &EndToEnd {
        name: "latency",
        unit: "ns",
        higher_is_better: false,
        bound: 0.10,
    };
    const THROUGHPUT: &EndToEnd = &EndToEnd {
        name: "throughput",
        unit: "Mups",
        higher_is_better: true,
        bound: 0.10,
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + (i as f64 - 4.5) * step).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = around(100.0, 0.2);
        assert_eq!(judge(LATENCY, &steady, &around(105.0, 0.2)), Verdict::Ok);
        assert_eq!(judge(LATENCY, &steady, &around(115.0, 0.2)), Verdict::Worse);
        assert_eq!(judge(LATENCY, &steady, &around(85.0, 0.2)), Verdict::Ok);
        assert_eq!(
            judge(THROUGHPUT, &steady, &around(85.0, 0.2)),
            Verdict::Worse
        );
        assert_eq!(judge(THROUGHPUT, &steady, &around(115.0, 0.2)), Verdict::Ok);
        assert_eq!(
            judge(LATENCY, &steady, &around(100.0, 5.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn reads_untraced_records_only() {
        let text = concat!(
            r#"{"workload": "build-bulk", "seed": 1, "trace": 0, "result": {"metrics": {"query_ns": {"value": 20.5, "unit": "ns"}}}}"#,
            "\n\n",
            r#"{"workload": "build-bulk", "seed": 1, "trace": 1, "result": {"metrics": {"par.bfs_ms": {"value": 3, "unit": "ms"}}}}"#,
            "\n",
            r#"{"workload": "build-bulk", "seed": 2, "trace": 0, "result": {"metrics": {"query_ns": {"value": 21.5, "unit": "ns"}}}}"#,
        );
        let set = parse_result_set(text).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(
            set[&("build-bulk".to_string(), "query_ns".to_string())],
            [20.5, 21.5]
        );
        assert!(parse_result_set("{\"trace\": 0}").is_err());
    }

    #[test]
    fn a_set_compared_with_itself_is_ok_everywhere() {
        let mut set = ResultSet::new();
        for workload in WORKLOADS {
            for metric in &END_TO_END {
                set.insert(
                    (workload.to_string(), metric.name.to_string()),
                    around(50.0, 0.1),
                );
            }
        }
        let mut table = Vec::new();
        let verdicts = compare(&set, &set, &mut table).unwrap();
        assert_eq!(verdicts.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(verdicts.iter().all(|v| *v == Verdict::Ok));
        set.remove(&("serve-mixed".to_string(), "setup_s".to_string()));
        assert!(compare(&set, &set, &mut table).is_err());
    }
}
