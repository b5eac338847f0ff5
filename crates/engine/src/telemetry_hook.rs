//! Emitting the compute-phase trace from a finished [`ComputeReport`].
//!
//! Spans are recorded *after* the run and after every mid-job pass rather
//! than inside the engine loops: the fault, elastic and comms passes
//! stretch walls, insert stalls and append replays, and only the final
//! report knows the timeline that actually "happened". This is the only
//! code that reads the sink — the passes record what they did as events
//! on their steps — which keeps the trace consistent with every number the
//! benchmarks print, and makes the disabled-mode guarantee trivial.
//!
//! Each superstep becomes a `superstep.N` span on the cluster track with
//! nested phase spans for the additive terms of the synchronous wall
//! formula — `compute` (max machine work), `network` (max machine inbound
//! bytes) and `sync` (everything else: the barrier, checkpoint stalls,
//! straggler penalties, per-iteration overheads) — plus per-machine `work`
//! and `recv` spans that expose imbalance. Replayed supersteps show up as
//! a second span with the same `superstep.N` label, in execution order.
//!
//! A step's events sit on its final boundaries: a checkpoint ends where
//! its step ends; a recovery, forced recovery or scale-out starts there; a
//! drain, preemption or evacuation starts with the first step of its
//! warning window; a retry window or backup task starts with its step.

use crate::report::{ComputeReport, EngineConfig, StepEvent};
use gp_telemetry::sink::{BYTES_BUCKETS, SECONDS_BUCKETS};
use gp_telemetry::{machine_span, span};

/// Record the whole compute phase of `report` into `config.telemetry`.
/// No-op (single discriminant check) when the sink is disabled.
pub fn record_compute_telemetry(config: &EngineConfig, report: &ComputeReport) {
    let sink = &config.telemetry;
    if !sink.is_enabled() {
        return;
    }
    let compute_rate = config.spec.compute_rate();
    let bandwidth = config.spec.bandwidth_bytes_per_s;
    // The one clock: step `i` runs from `bounds[i]` to `bounds[i + 1]`.
    let bounds: Vec<f64> = std::iter::once(0.0)
        .chain(report.cumulative_seconds())
        .collect();
    let (mut checkpoints, mut flaky_windows) = (0u32, 0u64);
    for (i, s) in report.steps.iter().enumerate() {
        let (clock, end) = (bounds[i], bounds[i + 1]);
        for event in &s.events {
            match event {
                StepEvent::Checkpoint { stall_s, bytes } => {
                    let n = checkpoints;
                    span!(sink, "fault", end - stall_s, *stall_s, "checkpoint.{n}");
                    sink.counter_add("fault.checkpoints", 1);
                    sink.counter_add("fault.checkpoint_bytes", bytes.round() as u64);
                    checkpoints += 1;
                }
                StepEvent::Crash(m, cost) => {
                    span!(sink, "fault", end, cost.transfer_seconds, "recovery.m{m}");
                    sink.counter_add("fault.crashes", 1);
                    sink.counter_add("fault.refetch_bytes", cost.refetch_bytes.round() as u64);
                }
                StepEvent::ForcedRecovery(m, cost) => {
                    let dur = cost.transfer_seconds;
                    span!(sink, "elastic", end, dur, "forced_recovery.m{m}");
                    sink.counter_add("elastic.forced_recoveries", 1);
                }
                StepEvent::ScaleOut { k, reingress_s } => {
                    let dur = reingress_s.unwrap_or(0.0);
                    span!(sink, "elastic", end, dur, "scale_out.k{k}");
                    let decision = match reingress_s {
                        Some(_) => "elastic.repartitions",
                        None => "elastic.degraded_scale_outs",
                    };
                    sink.counter_add(decision, 1);
                    sink.counter_add("elastic.scale_outs", 1);
                }
                StepEvent::Departure {
                    machine: m,
                    drain,
                    window_steps,
                    window_s,
                    evacuation,
                } => {
                    let start = bounds[i + 1 - window_steps];
                    let verb = if *drain { "drain" } else { "preempt" };
                    span!(sink, "elastic", start, *window_s, "{verb}.m{m}");
                    if let Some(evac) = evacuation {
                        let dur = evac.transfer_seconds;
                        span!(sink, "elastic", start, dur, "evacuation.m{m}");
                        sink.counter_add("elastic.evacuations", 1);
                        let moved = evac.moved_bytes.round() as u64;
                        sink.counter_add("elastic.evacuated_bytes", moved);
                    }
                }
                StepEvent::Retry { machine, dur_s } => {
                    machine_span!(sink, "net", *machine, clock, *dur_s, "retry");
                    flaky_windows += 1;
                }
                StepEvent::Speculate(slow, backup, clone_s) => {
                    span!(sink, "net", clock, *clone_s, "speculate.m{slow}->m{backup}");
                }
            }
        }
        let (superstep, wall) = (s.superstep, s.wall_seconds);
        let compute = s.machine_work.iter().copied().fold(0.0, f64::max) / compute_rate;
        let net = s.machine_in_bytes.iter().copied().fold(0.0, f64::max) / bandwidth;
        let sync = (wall - compute - net).max(0.0);
        span!(sink, "superstep", clock, wall, "superstep.{superstep}");
        span!(sink, "phase", clock, compute, "compute");
        span!(sink, "phase", clock + compute, net, "network");
        span!(sink, "phase", clock + compute + net, sync, "sync");
        for (m, &w) in s.machine_work.iter().enumerate() {
            if w > 0.0 {
                machine_span!(sink, "machine", m as u32, clock, w / compute_rate, "work");
            }
        }
        for (m, &b) in s.machine_in_bytes.iter().enumerate() {
            if b > 0.0 {
                let at = clock + compute;
                machine_span!(sink, "machine", m as u32, at, b / bandwidth, "recv");
            }
        }
        sink.counter_add("engine.supersteps", 1);
        sink.counter_add("engine.gather_messages", s.gather_messages);
        sink.counter_add("engine.mirrors_synced", s.sync_messages);
        sink.counter_add("engine.bytes_shipped", s.total_in_bytes().round() as u64);
        sink.histogram_record("superstep.wall_seconds", &SECONDS_BUCKETS, s.wall_seconds);
        sink.histogram_record("superstep.in_bytes", &BYTES_BUCKETS, s.total_in_bytes());
    }
    sink.gauge_set("engine.compute_seconds", report.compute_seconds());
    // par.* metrics only exist on parallel runs, so sequential traces are
    // byte-identical to pre-parallelism ones; the identity tests filter
    // them out with `csv_without_prefix(.., "par.")` when comparing.
    if config.par.is_parallel() {
        sink.gauge_set("par.threads", config.par.effective_threads() as f64);
    }
    if report.supersteps_replayed > 0 {
        sink.counter_add(
            "fault.supersteps_replayed",
            report.supersteps_replayed as u64,
        );
    }
    if flaky_windows > 0 {
        sink.counter_add("net.flaky_windows", flaky_windows);
        sink.counter_add(
            "net.retransmit_bytes",
            report.retransmit_bytes.round() as u64,
        );
        sink.gauge_set("net.timeout_stall_seconds", report.retry_timeout_seconds);
    }
    if report.speculative_clones > 0 {
        let shipped = report.speculation_shipped_bytes.round() as u64;
        sink.counter_add("net.speculations", u64::from(report.speculative_clones));
        sink.counter_add("net.speculation_shipped_bytes", shipped);
        sink.gauge_set(
            "net.speculation_saved_seconds",
            report.speculation_saved_seconds,
        );
    }
    // Multi-run apps (a k-core sweep is eleven engine runs on one sink)
    // share the simulated clock: advance it so the next run tiles after
    // this one instead of overlapping.
    sink.advance_time_offset(report.wall_clock_seconds());
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
                    replay: false,
                    events: Vec::new(),
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
                    replay: false,
                    events: Vec::new(),
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
