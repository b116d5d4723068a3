//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints every metric of its kind, in catalogue order:
//! end-to-end metrics untraced, per-layer metrics traced. A per-layer
//! metric of a layer the workload does not exercise reads 0 (no work
//! done there); `README.md` lists which workload exercises which.

/// End-to-end metrics: `(name, unit)`. Measured by untraced runs.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_us", "us")];

/// Per-layer metrics: `(name, unit)`. Measured by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    // armada-wire
    ("wire.discover.encode_ns", "ns"),
    ("wire.discover.decode_ns", "ns"),
    ("wire.heartbeat.encode_ns", "ns"),
    ("wire.discover.req_bytes", "B"),
    ("wire.discover.resp_bytes", "B"),
    ("wire.heartbeat.req_bytes", "B"),
    ("wire.heartbeat.resp_bytes", "B"),
    ("wire.frame.req_bytes", "B"),
    ("wire.frame.resp_bytes", "B"),
    ("wire.probe_reply.req_bytes", "B"),
    ("wire.probe_reply.resp_bytes", "B"),
    ("wire.join.req_bytes", "B"),
    ("wire.join.resp_bytes", "B"),
    ("wire.rpc_floor_us", "us"),
    ("wire.sync.frame_kb", "KiB"),
    ("wire.sync.headroom_kb", "KiB"),
    // armada-reactor (server processes)
    ("reactor.wakeups_per_op", "count"),
    ("reactor.active_conns", "count"),
    ("reactor.buffered_write_kb_max", "KiB"),
    // armada-live manager
    ("live.manager.discover_excess_us", "us"),
    ("live.manager.cpu_us_per_op", "us"),
    ("live.manager.allocs_per_op", "count"),
    ("live.manager.syncs_applied_per_s", "1/s"),
    ("live.manager.discoveries_served", "count"),
    ("live.manager.shed", "count"),
    ("live.manager.synced", "count"),
    // armada-live node
    ("live.node.cpu_us_per_frame", "us"),
    ("live.node.allocs_per_frame", "count"),
    ("live.node.exec_share", "ratio"),
    ("live.node.frames_processed", "count"),
    ("live.node.busy", "count"),
    // armada-live client / armada-client
    ("live.client.discover_us", "us"),
    ("live.client.probe_round_us", "us"),
    ("live.client.join_us", "us"),
    ("live.client.allocs_per_session", "count"),
    // armada-core / -sim / -net / -manager / -federation
    ("sim.frames", "count"),
    ("sim.discoveries", "count"),
    ("sim.probes", "count"),
    ("sim.test_invocations", "count"),
    ("sim.failovers", "count"),
    ("sim.ns_per_frame", "ns"),
    ("sim.allocs_per_frame", "count"),
    ("sim.trace_events.frame.done", "count"),
    ("sim.trace_events.probe.round.start", "count"),
    ("sim.trace_events.probe.round.done", "count"),
    ("sim.trace_events.fed.route", "count"),
    ("sim.trace_events.fed.sync", "count"),
    ("sim.trace_events.client.join", "count"),
    ("sim.trace_events.client.switch", "count"),
    ("sim.trace_events.node.whatif.refresh", "count"),
    ("sim.trace_events.other", "count"),
    // the workload's second operation and its peak rate, which spread
    // too much between runs to be end-to-end metrics, and the highest
    // percentile each timing's sample supports
    ("side.p50_us", "us"),
    ("peak.per_s", "1/s"),
    ("tail.op_us", "us"),
    ("tail.op_pct", "%"),
    ("tail.op_samples", "count"),
    ("tail.side_us", "us"),
    ("tail.side_pct", "%"),
    ("tail.side_samples", "count"),
    // generator and tracer health
    ("gen.discover.late_p99_us", "us"),
    ("gen.discover.late_max_us", "us"),
    ("gen.heartbeat.late_p99_us", "us"),
    ("gen.heartbeat.late_max_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Trace-event kinds counted individually by `sim.trace_events.*`;
/// every other kind lands in `sim.trace_events.other`.
pub const SIM_TRACE_KINDS: &[&str] = &[
    "frame.done",
    "probe.round.start",
    "probe.round.done",
    "fed.route",
    "fed.sync",
    "client.join",
    "client.switch",
    "node.whatif.refresh",
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub problems: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records `value` for the catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue: a typo must not silently
    /// drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.values.retain(|(n, _)| n != name);
        self.values.push((name, value));
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: end-to-end metrics when untraced, per-layer
    /// metrics when traced. A catalogued metric the workload did not
    /// record reads 0; so does any non-finite value (which would not
    /// be valid JSON), and a non-finite end-to-end value also marks
    /// the run incorrect.
    pub fn result_line(&mut self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let mut value = self.value(name).unwrap_or(0.0);
            if !value.is_finite() {
                if !traced {
                    self.problems.push(format!("{name} is not finite"));
                }
                value = 0.0;
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogued_in(benchmark: &str, section: &str) -> Vec<(String, String)> {
        // The section is a JSON array of objects; pull name/unit pairs
        // without a JSON dependency.
        let start = benchmark
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &benchmark[start..];
        let end = body.find(']').expect("section closes");
        let mut out = Vec::new();
        for obj in body[..end].split('{').skip(1) {
            let grab = |key: &str| {
                let at = obj.find(&format!("\"{key}\"")).expect("key present");
                let rest = &obj[at + key.len() + 2..];
                let open = rest.find('"').expect("value opens") + 1;
                let close = rest[open..].find('"').expect("value closes") + open;
                rest[open..close].to_string()
            };
            out.push((grab("name"), grab("unit")));
        }
        out
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(catalogued_in(&text, "end_to_end"), want(END_TO_END));
        assert_eq!(catalogued_in(&text, "per_layer"), want(PER_LAYER));
    }

    #[test]
    fn untraced_line_holds_exactly_the_end_to_end_metrics() {
        let mut r = Report::default();
        r.set("op_p50_us", 12.5);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(!line.contains("wire."));
        assert!(line.contains("\"op_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
    }

    #[test]
    fn failed_check_and_non_finite_values_make_the_run_incorrect() {
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
        let mut r = Report::default();
        r.check(false, || "mismatch".into());
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_metric_is_refused() {
        Report::default().set("no.such.metric", 1.0);
    }
}
