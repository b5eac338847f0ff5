//! The metric names and units, as `BENCHMARK.json` lists them. Later issues
//! cite a claim as `<metric>` on `<workload>`, so these names are the
//! contract; a test keeps them in step with `BENCHMARK.json`.

/// End-to-end metrics, the same on every workload, from the untraced run.
/// `failed_share` is reported through the `failed` and `attempted` counts of
/// the result line instead: it is 0 on every accepted run, and a metric
/// whose median is 0 cannot carry a relative bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, from the traced run. Layer = crate; `share.*` is the
/// layer's self time over the workload's wall time, everything else comes
/// from the layer probes (`probes.rs`).
pub const PER_LAYER: [(&str, &str); 73] = [
    ("gen.generate_ms", "ms"),
    ("gen.edges_per_s", "1/s"),
    ("store.build_ms", "ms"),
    ("store.bytes_per_edge", "B/edge"),
    ("store.open_verify_ms", "ms"),
    ("store.scan_ms", "ms"),
    ("store.scan_edges_per_s", "1/s"),
    ("core.text_parse_edges_per_s", "1/s"),
    ("core.csr_build_ms", "ms"),
    ("partition.random_ms", "ms"),
    ("partition.grid_ms", "ms"),
    ("partition.hdrf_ms", "ms"),
    ("partition.hdrf_auto_ms", "ms"),
    ("partition.oblivious_ms", "ms"),
    ("partition.hybrid_ms", "ms"),
    ("partition.hginger_ms", "ms"),
    ("partition.vebo_ms", "ms"),
    ("partition.stream_overhead_share", "ratio"),
    ("partition.freeze_ms", "ms"),
    ("partition.report_ms", "ms"),
    ("partition.export_ms", "ms"),
    ("partition.spec_repair_rate", "ratio"),
    ("partition.spec_shrinks", "count"),
    ("partition.incremental_assign_ns", "ns"),
    ("par.run_ordered_call_us", "us"),
    ("par.speedup.random", "ratio"),
    ("par.speedup.hdrf_auto", "ratio"),
    ("par.speedup.oblivious_par", "ratio"),
    ("par.speedup.sync_pagerank", "ratio"),
    ("par.speedup.pregel_pagerank", "ratio"),
    ("par.cpu_inflation", "ratio"),
    ("engine.replica_table_ms", "ms"),
    ("engine.sync_pagerank_ms", "ms"),
    ("engine.hybrid_pagerank_ms", "ms"),
    ("engine.pregel_pagerank_ms", "ms"),
    ("engine.sync_wcc_ms", "ms"),
    ("engine.sync_sssp_ms", "ms"),
    ("engine.async_coloring_ms", "ms"),
    ("engine.hybrid_kcore_ms", "ms"),
    ("engine.sync_loop_ns_per_edge_step", "ns"),
    ("engine.supersteps", "count"),
    ("engine.fault_hook_ms", "ms"),
    ("engine.elastic_hook_ms", "ms"),
    ("engine.comms_hook_ms", "ms"),
    ("engine.telemetry_hook_ms", "ms"),
    ("serve.plan_generate_ms", "ms"),
    ("serve.ingest_ms", "ms"),
    ("serve.events_per_s", "1/s"),
    ("serve.repair_ms", "ms"),
    ("serve.repairs", "count"),
    ("serve.render_ms", "ms"),
    ("elastic.tenant_schedule_ms", "ms"),
    ("telemetry.recording_overhead_share", "ratio"),
    ("telemetry.export_ms", "ms"),
    ("bench.tables_ms", "ms"),
    ("bench.ch5_ms", "ms"),
    ("bench.ch6_ms", "ms"),
    ("bench.ch7_ms", "ms"),
    ("bench.ch8_ms", "ms"),
    ("bench.ch9_ms", "ms"),
    ("bench.ch10_13_ms", "ms"),
    ("bench.ablations_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("share.gen", "ratio"),
    ("share.store", "ratio"),
    ("share.core", "ratio"),
    ("share.partition", "ratio"),
    ("share.par", "ratio"),
    ("share.engine", "ratio"),
    ("share.serve", "ratio"),
    ("share.bench", "ratio"),
    ("share.harness", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured, with all its digits.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
}

/// The driver's result line: one JSON object, the last line of stdout.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(name), "metric name `{name}`");
            assert!(seen.insert(*name), "metric `{name}` listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{unit}` of `{name}`"
            );
        }
        for workload in crate::workloads::NAMES {
            assert!(well_formed(workload), "workload name `{workload}`");
        }
        assert!(!well_formed("has space") && !well_formed(".leading") && !well_formed(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str, next: &str| -> Vec<(String, String)> {
            let from = json.find(&format!("\"{section}\"")).expect(section);
            let to = json[from..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |i| from + i);
            let field = |line: &str, key: &str| {
                let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
                Some(line[at..at + line[at..].find('"')?].to_string())
            };
            json[from..to]
                .lines()
                .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end", "per_layer"), own(&END_TO_END));
        assert_eq!(listed("per_layer", "\u{0}"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads", "end_to_end")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            9,
            0,
            &[Metric {
                name: "wall_s",
                value: 1.2034,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.2034, \"unit\": \"s\"}}}"
        );
        assert!(result_json(9, 1, &[]).starts_with("{\"correct\": false"));
    }
}
