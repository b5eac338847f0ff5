//! Emitting the compute-phase trace from a finished [`ComputeReport`].
//!
//! Spans are recorded *after* the run (and after [`crate::fault_hook`]
//! rewrote the timeline) rather than inside the engine loops: the fault
//! model stretches walls, inserts checkpoint stalls and appends crash
//! replays, and only the final report knows the timeline that actually
//! "happened". Recording from the report keeps the trace consistent with
//! every number the benchmarks print, and makes the disabled-mode
//! guarantee trivial — the engines never branch on telemetry at all.
//!
//! Each superstep becomes a `superstep.N` span on the cluster track with
//! nested phase spans for the additive terms of the synchronous wall
//! formula — `compute` (max machine work), `network` (max machine inbound
//! bytes) and `sync` (everything else: the barrier, checkpoint stalls,
//! straggler penalties, per-iteration overheads) — plus per-machine `work`
//! and `recv` spans that expose imbalance. Replayed supersteps show up as
//! a second span with the same `superstep.N` label, in execution order.

use crate::report::{ComputeReport, EngineConfig};
use gp_telemetry::sink::{BYTES_BUCKETS, SECONDS_BUCKETS};
use gp_telemetry::{machine_span, span};

/// Record the whole compute phase of `report` into `config.telemetry`.
/// No-op (single discriminant check) when the sink is disabled.
pub fn record_compute_telemetry(config: &EngineConfig, report: &ComputeReport) {
    let telemetry = &config.telemetry;
    if !telemetry.is_enabled() {
        return;
    }
    let compute_rate = config.spec.compute_rate();
    let bandwidth = config.spec.bandwidth_bytes_per_s;
    let mut clock = 0.0f64;
    for s in &report.steps {
        let superstep = s.superstep;
        let compute = s.machine_work.iter().copied().fold(0.0, f64::max) / compute_rate;
        let net = s.machine_in_bytes.iter().copied().fold(0.0, f64::max) / bandwidth;
        let sync = (s.wall_seconds - compute - net).max(0.0);
        span!(
            telemetry,
            "superstep",
            clock,
            s.wall_seconds,
            "superstep.{superstep}"
        );
        span!(telemetry, "phase", clock, compute, "compute");
        span!(telemetry, "phase", clock + compute, net, "network");
        span!(telemetry, "phase", clock + compute + net, sync, "sync");
        for (m, &w) in s.machine_work.iter().enumerate() {
            if w > 0.0 {
                machine_span!(
                    telemetry,
                    "machine",
                    m as u32,
                    clock,
                    w / compute_rate,
                    "work"
                );
            }
        }
        for (m, &b) in s.machine_in_bytes.iter().enumerate() {
            if b > 0.0 {
                machine_span!(
                    telemetry,
                    "machine",
                    m as u32,
                    clock + compute,
                    b / bandwidth,
                    "recv"
                );
            }
        }
        telemetry.counter_add("engine.supersteps", 1);
        telemetry.counter_add("engine.gather_messages", s.gather_messages);
        telemetry.counter_add("engine.mirrors_synced", s.sync_messages);
        telemetry.counter_add("engine.bytes_shipped", s.total_in_bytes().round() as u64);
        telemetry.histogram_record("superstep.wall_seconds", &SECONDS_BUCKETS, s.wall_seconds);
        telemetry.histogram_record("superstep.in_bytes", &BYTES_BUCKETS, s.total_in_bytes());
        clock += s.wall_seconds;
    }
    telemetry.gauge_set("engine.compute_seconds", report.compute_seconds());
    // par.* metrics only exist on parallel runs, so sequential traces are
    // byte-identical to pre-parallelism ones; the identity tests filter
    // them out with `csv_without_prefix(.., "par.")` when comparing.
    if config.par.is_parallel() {
        telemetry.gauge_set("par.threads", config.par.effective_threads() as f64);
    }
    if report.supersteps_replayed > 0 {
        telemetry.counter_add(
            "fault.supersteps_replayed",
            report.supersteps_replayed as u64,
        );
    }
    // Multi-run apps (a k-core sweep is eleven engine runs on one sink)
    // share the simulated clock: advance it so the next run tiles after
    // this one instead of overlapping.
    telemetry.advance_time_offset(report.wall_clock_seconds());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SuperstepStats;
    use gp_cluster::ClusterSpec;
    use gp_telemetry::TelemetrySink;

    fn report() -> ComputeReport {
        ComputeReport::new(
            "test",
            "sync-gas",
            vec![
                SuperstepStats {
                    superstep: 0,
                    active_vertices: 4,
                    gather_messages: 6,
                    sync_messages: 2,
                    machine_work: vec![100.0, 50.0],
                    machine_in_bytes: vec![0.0, 800.0],
                    machine_out_bytes: vec![800.0, 0.0],
                    wall_seconds: 0.5,
                },
                SuperstepStats {
                    superstep: 1,
                    active_vertices: 2,
                    gather_messages: 3,
                    sync_messages: 1,
                    machine_work: vec![40.0, 80.0],
                    machine_in_bytes: vec![400.0, 0.0],
                    machine_out_bytes: vec![0.0, 400.0],
                    wall_seconds: 0.25,
                },
            ],
            true,
        )
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let config = EngineConfig::new(ClusterSpec::local_9());
        record_compute_telemetry(&config, &report());
        assert!(config.telemetry.spans().is_empty());
    }

    #[test]
    fn supersteps_tile_the_clock_with_nested_phases() {
        let config =
            EngineConfig::new(ClusterSpec::local_9()).with_telemetry(TelemetrySink::recording());
        record_compute_telemetry(&config, &report());
        let spans = config.telemetry.spans();
        let steps: Vec<_> = spans.iter().filter(|s| s.cat == "superstep").collect();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].start_s, 0.0);
        assert_eq!(steps[1].start_s, 0.5);
        // Every phase span sits inside its superstep span.
        for phase in spans.iter().filter(|s| s.cat == "phase") {
            assert!(
                steps.iter().any(|st| st.contains(phase) || **st == *phase),
                "phase {phase:?} not nested"
            );
        }
        // Machine tracks got work spans; zero-volume entries are skipped.
        assert!(spans.iter().any(|s| s.cat == "machine" && s.name == "work"));
        let recvs = spans
            .iter()
            .filter(|s| s.cat == "machine" && s.name == "recv")
            .count();
        assert_eq!(recvs, 2, "one recv span per step with bytes");
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let config =
            EngineConfig::new(ClusterSpec::local_9()).with_telemetry(TelemetrySink::recording());
        record_compute_telemetry(&config, &report());
        let t = &config.telemetry;
        assert_eq!(t.counter("engine.supersteps"), 2);
        assert_eq!(t.counter("engine.gather_messages"), 9);
        assert_eq!(t.counter("engine.mirrors_synced"), 3);
        assert_eq!(t.counter("engine.bytes_shipped"), 1200);
        assert_eq!(t.histogram("superstep.wall_seconds").unwrap().count(), 2);
        assert_eq!(t.counter("fault.supersteps_replayed"), 0);
    }
}
