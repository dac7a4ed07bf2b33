//! The metric catalogue and the one-line JSON result.

/// End-to-end metrics: printed by every untraced run, on every workload.
/// `(name, unit)`; BENCHMARK.json lists the same names with their bounds.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
/// Unit costs come from probes that run on every workload; counts and
/// shares of a layer the workload does not use read 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.calibrate_us", "us"),
    ("workloads.calibrations", "count"),
    ("archsim.us_per_sim_s", "us/s"),
    ("archsim.sim_node_s", "s"),
    ("archsim.rapl_us_per_sim_s", "us/s"),
    ("mpisim.run_job_p50_ms", "ms"),
    ("mpisim.run_job_p95_ms", "ms"),
    ("mpisim.self_share", "ratio"),
    ("mpisim.break_even_nodes", "count"),
    ("earl.hook_ns", "ns"),
    ("earl.hooks", "count"),
    ("earl.share", "ratio"),
    ("earl.policy_ns", "ns"),
    ("dynais.sample_ns", "ns"),
    ("dynais.samples", "count"),
    ("engine.busy_share", "ratio"),
    ("engine.tasks", "count"),
    ("engine.tasks_failed", "count"),
    ("cache.lookup_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("fit.poly2_us", "us"),
    ("netd.encode_ns", "ns"),
    ("netd.decode_ns", "ns"),
    ("netd.service_ns", "ns"),
    ("netd.io_share", "ratio"),
    ("jobstream.plan_us", "us"),
    ("jobstream.rebalances", "count"),
    ("jobstream.caps_pushed", "count"),
    ("jobstream.protocol_errors", "count"),
    ("core.distribute_budget_ns", "ns"),
    ("op.per_s", "1/s"),
    ("op.p99_us", "us"),
    ("op.samples", "count"),
    ("op.p99_beyond", "count"),
    ("acct.wall_s", "s"),
    ("acct.attributed_s", "s"),
    ("acct.unattributed_s", "s"),
    ("acct.probe_s", "s"),
    ("acct.layers_closed", "ratio"),
    ("run.nproc", "count"),
];

/// What one benchmark run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a metric (the last value recorded under a name wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Renders the result line for the given catalogue. A catalogue metric
    /// that was not measured, or measured as a non-finite number, makes
    /// the run incorrect rather than printing a made-up value.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    continue;
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit the value carries
/// (`{:?}` prints the shortest representation that round-trips).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogue_metric_is_printed_in_order() {
        let mut o = Outcome::default();
        o.count(3, 0);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        let line = o.to_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        let mut at = 0;
        for (name, unit) in END_TO_END {
            let key = format!("\"{name}\": {{\"value\": ");
            let pos = line[at..].find(&key).map(|p| p + at);
            assert!(pos.is_some(), "{name} missing from {line}");
            at = pos.unwrap_or(0);
            assert!(line[at..].contains(&format!("\"unit\": \"{unit}\"")));
        }
    }

    #[test]
    fn missing_or_non_finite_metrics_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.count(1, 0);
        o.set("setup_s", f64::NAN);
        assert!(o.to_json(&END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 2.0);
        }
        o.count(10, 1);
        assert!(o
            .to_json(&END_TO_END)
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(3.0), "3.0");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }
}
