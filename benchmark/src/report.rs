//! The benchmark's vocabulary — workloads, metrics, units, bounds — and
//! the result line. `BENCHMARK.json` names the same sets; the smoke test
//! holds the two together.

use std::io::Write;

pub const WORKLOADS: [&str; 4] = ["build-bulk", "serve-insert", "serve-churn", "serve-mixed"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "update_mups",
        unit: "Mups",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ns",
        unit: "ns",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "analysis_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "visible_lag_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics with their units, grouped by the module they price.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("rmat.generate_s", "s"),
    ("rmat.stream_build_s", "s"),
    ("adjacency.hybrid.insert_mups", "Mups"),
    ("adjacency.hybrid.delete_mups", "Mups"),
    ("adjacency.hybrid.bytes_per_edge", "B"),
    ("adjacency.dynarr.insert_mups", "Mups"),
    ("adjacency.dynarr.delete_mups", "Mups"),
    ("adjacency.dynarr.bytes_per_edge", "B"),
    ("adjacency.treap.insert_mups", "Mups"),
    ("adjacency.treap.delete_mups", "Mups"),
    ("adjacency.treap.bytes_per_edge", "B"),
    ("engine.apply_batch_mups", "Mups"),
    ("engine.apply_stream_mups", "Mups"),
    ("engine.apply_vpart_mups", "Mups"),
    ("engine.apply_epart_mups", "Mups"),
    ("engine.apply_batched_mups", "Mups"),
    ("engine.semi_sort_bound_ms", "ms"),
    ("engine.changed_ratio", "ratio"),
    ("csr.freeze_ms", "ms"),
    ("csr.bytes_per_edge", "B"),
    ("compressed.encode_ms", "ms"),
    ("compressed.ratio_vs_csr", "ratio"),
    ("kernels.bfs_ms", "ms"),
    ("par.bfs_ms", "ms"),
    ("kernels.cc_ms", "ms"),
    ("par.cc_ms", "ms"),
    ("kernels.lcf_build_ms", "ms"),
    ("kernels.lcf_query_ns", "ns"),
    ("serve.cycles", "count"),
    ("serve.updates_per_cycle", "count"),
    ("serve.apply_ms", "ms"),
    ("serve.apply_share", "ratio"),
    ("connectivity.note_ms", "ms"),
    ("connectivity.note_share", "ratio"),
    ("connectivity.labels_ms", "ms"),
    ("connectivity.labels_share", "ratio"),
    ("csr.cycle_freeze_ms", "ms"),
    ("csr.freeze_share", "ratio"),
    ("connectivity.repairs", "count"),
    ("connectivity.full_rebuilds", "count"),
    ("connectivity.dirty_cycle_ratio", "ratio"),
    ("serve.replay_coverage", "ratio"),
    ("serve.engine_new_ms", "ms"),
    ("serve.pin_ns", "ns"),
    ("serve.submit_ns", "ns"),
    ("serve.visible_lag_ms_p95", "ms"),
    ("serve.generator_late_ms_p95", "ms"),
    ("serve.query_block_ns_p99", "ns"),
    ("serve.achieved_over_offered", "ratio"),
    ("serve.backlog_max", "count"),
    ("trace.overhead_share", "ratio"),
];

/// What one run found: the oracle's tally and the named metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn emit(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Counts one oracle comparison covering `attempted` operations of
    /// which `failed` disagreed, naming the check when any did.
    pub fn check(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("oracle: {failed} of {attempted} failed: {what}");
        }
    }

    /// The metrics as `(name, value, unit)`, checked against `names`:
    /// each named metric exactly once, nothing unnamed, every value a
    /// finite number.
    fn rows(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&str, f64, &str)>, String> {
        for (name, _) in &self.metrics {
            if !names.iter().any(|(n, _)| n == name) {
                return Err(format!("metric `{name}` is not named in the benchmark"));
            }
        }
        names
            .iter()
            .map(|&(name, unit)| {
                let mut hits = self.metrics.iter().filter(|(n, _)| n == name);
                match (hits.next(), hits.next()) {
                    (Some(&(_, v)), None) if v.is_finite() => Ok((name, v, unit)),
                    (Some(&(_, v)), None) => Err(format!("metric `{name}` is {v}")),
                    (None, _) => Err(format!("metric `{name}` was not measured")),
                    _ => Err(format!("metric `{name}` was measured twice")),
                }
            })
            .collect()
    }

    /// Prints every metric by name with its unit, then the result object
    /// as the last line of standard output.
    pub fn print(&self, traced: bool, out: &mut impl Write) -> Result<String, String> {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let rows = self.rows(&names)?;
        let io = |e: std::io::Error| e.to_string();
        for (name, value, unit) in &rows {
            writeln!(out, "{name:<34} {value:>16.6} {unit}").map_err(io)?;
        }
        writeln!(
            out,
            "ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        )
        .map_err(io)?;
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        writeln!(out, "{line}").map_err(io)?;
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_end_to_end() -> Report {
        let mut r = Report::default();
        for m in &END_TO_END {
            r.emit(m.name, 1.25);
        }
        r.check("demo", 10, 0);
        r
    }

    #[test]
    fn prints_every_named_metric_and_a_parsable_last_line() {
        let mut out = Vec::new();
        let line = full_end_to_end().print(false, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().last(), Some(line.as_str()));
        let v = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn refuses_missing_duplicate_unnamed_and_non_finite_metrics() {
        let mut sink = Vec::new();
        let mut missing = Report::default();
        missing.emit("update_mups", 1.0);
        assert!(missing.print(false, &mut sink).is_err());
        let mut twice = full_end_to_end();
        twice.emit("setup_s", 2.0);
        assert!(twice.print(false, &mut sink).is_err());
        let mut unnamed = full_end_to_end();
        unnamed.emit("bogus", 2.0);
        assert!(unnamed.print(false, &mut sink).is_err());
        let mut nan = Report::default();
        for m in &END_TO_END {
            nan.emit(m.name, f64::NAN);
        }
        assert!(nan.print(false, &mut sink).is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
