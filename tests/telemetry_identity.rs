//! Telemetry must be an observer, never a participant: instrumented runs
//! with a `Disabled` sink are bit-identical to uninstrumented ones, traces
//! are deterministic per seed, and the Chrome exporter's byte format is
//! pinned by a golden file.

use distgraph::apps::PageRank;
use distgraph::cluster::ClusterSpec;
use distgraph::engine::{CommsConfig, Engine, EngineConfig, Model};
use distgraph::fault::{CheckpointPolicy, FaultEvent, FaultKind, FaultPlan};
use distgraph::gen::Dataset;
use distgraph::partition::{Assignment, PartitionContext, Strategy};
use distgraph::telemetry::TelemetrySink;
use gp_bench::{App, EngineKind, Pipeline, Scenario};

fn graph_and_assignment() -> (distgraph::core::EdgeList, Assignment) {
    let g = Dataset::LiveJournal.generate(0.05, 7);
    let a = Strategy::Hdrf
        .build()
        .partition(&g, &PartitionContext::new(9).with_seed(5))
        .assignment;
    (g, a)
}

/// A config that exercises the fault path too, so the checkpoint/recovery
/// telemetry in `fault_hook` is covered by the identity check.
fn faulty_config(sink: TelemetrySink) -> EngineConfig {
    EngineConfig::new(ClusterSpec::local_9())
        .with_fault_plan(FaultPlan::crash_at(2, 1))
        .with_checkpoint(CheckpointPolicy::every(2))
        .with_telemetry(sink)
}

#[test]
fn disabled_sink_is_bit_identical_across_all_engines() {
    let (g, a) = graph_and_assignment();
    let prog = PageRank::fixed(6);

    let (s_off, r_off) = Engine::new(faulty_config(TelemetrySink::Disabled), Model::Sync)
        .run(&g, &a, &prog)
        .unwrap();
    let (s_on, r_on) = Engine::new(faulty_config(TelemetrySink::recording()), Model::Sync)
        .run(&g, &a, &prog)
        .unwrap();
    assert_eq!(s_off, s_on, "sync states diverge");
    assert_eq!(format!("{r_off:?}"), format!("{r_on:?}"), "sync report");

    let (s_off, r_off) = Engine::new(faulty_config(TelemetrySink::Disabled), Model::Hybrid)
        .run(&g, &a, &prog)
        .unwrap();
    let (s_on, r_on) = Engine::new(faulty_config(TelemetrySink::recording()), Model::Hybrid)
        .run(&g, &a, &prog)
        .unwrap();
    assert_eq!(s_off, s_on, "hybrid states diverge");
    assert_eq!(format!("{r_off:?}"), format!("{r_on:?}"), "hybrid report");

    let (s_off, r_off) = Engine::new(faulty_config(TelemetrySink::Disabled), Model::Async)
        .run(&g, &a, &prog)
        .unwrap();
    let (s_on, r_on) = Engine::new(faulty_config(TelemetrySink::recording()), Model::Async)
        .run(&g, &a, &prog)
        .unwrap();
    assert_eq!(s_off, s_on, "async states diverge");
    assert_eq!(format!("{r_off:?}"), format!("{r_on:?}"), "async report");

    let (s_off, r_off) = Engine::new(faulty_config(TelemetrySink::Disabled), Model::GRAPHX)
        .run(&g, &a, &prog)
        .expect("fits");
    let (s_on, r_on) = Engine::new(faulty_config(TelemetrySink::recording()), Model::GRAPHX)
        .run(&g, &a, &prog)
        .expect("fits");
    assert_eq!(s_off, s_on, "pregel states diverge");
    assert_eq!(format!("{r_off:?}"), format!("{r_on:?}"), "pregel report");
}

/// A config exercising the comms path: flaky links everywhere plus one
/// straggler, with reliable delivery and speculation both on.
fn flaky_config(sink: TelemetrySink) -> EngineConfig {
    let mut plan = FaultPlan::uniform_flaky(0.1, 9, 100);
    plan.push(FaultEvent {
        superstep: 2,
        machine: 4,
        kind: FaultKind::Straggler {
            factor: 20.0,
            duration_steps: 2,
        },
    });
    EngineConfig::new(ClusterSpec::local_9())
        .with_fault_plan(plan)
        .with_comms(CommsConfig::reliable().with_speculation(true))
        .with_telemetry(sink)
}

#[test]
fn flaky_runs_are_deterministic_across_all_engines() {
    // Same seed + same flaky plan: reports AND trace bytes must be identical
    // across two runs, for every engine.
    let (g, a) = graph_and_assignment();
    let prog = PageRank::fixed(6);
    let twice = |run: &dyn Fn(EngineConfig) -> String| {
        let sink1 = TelemetrySink::recording();
        let sink2 = TelemetrySink::recording();
        let r1 = run(flaky_config(sink1.clone()));
        let r2 = run(flaky_config(sink2.clone()));
        assert_eq!(r1, r2, "report not deterministic");
        let json = sink1.chrome_trace_json();
        assert_eq!(json, sink2.chrome_trace_json(), "trace not deterministic");
        json
    };
    let sync_json = twice(&|c| {
        format!(
            "{:?}",
            Engine::new(c, Model::Sync).run(&g, &a, &prog).unwrap().1
        )
    });
    twice(&|c| {
        format!(
            "{:?}",
            Engine::new(c, Model::Hybrid).run(&g, &a, &prog).unwrap().1
        )
    });
    twice(&|c| {
        format!(
            "{:?}",
            Engine::new(c, Model::Async).run(&g, &a, &prog).unwrap().1
        )
    });
    twice(&|c| {
        format!(
            "{:?}",
            Engine::new(c, Model::GRAPHX)
                .run(&g, &a, &prog)
                .expect("fits")
                .1
        )
    });
    // The flaky windows surface in the trace as net-category retry spans.
    assert!(sync_json.contains("\"cat\":\"net\""), "missing net spans");
}

#[test]
fn default_config_and_disabled_sink_agree() {
    // `Disabled` is the default: an engine built without touching telemetry
    // at all must match one built with an explicit `Disabled` sink.
    let (g, a) = graph_and_assignment();
    let prog = PageRank::fixed(4);
    let plain = EngineConfig::new(ClusterSpec::local_9());
    let explicit =
        EngineConfig::new(ClusterSpec::local_9()).with_telemetry(TelemetrySink::Disabled);
    let (s1, r1) = Engine::new(plain, Model::Sync).run(&g, &a, &prog).unwrap();
    let (s2, r2) = Engine::new(explicit, Model::Sync)
        .run(&g, &a, &prog)
        .unwrap();
    assert_eq!(s1, s2);
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
}

fn traced_job(sink: &TelemetrySink) -> gp_bench::JobResult {
    traced_job_threads(sink, 1)
}

fn traced_job_threads(sink: &TelemetrySink, threads: u32) -> gp_bench::JobResult {
    let mut pipeline = Pipeline::new(0.05, 11)
        .with_telemetry(sink.clone())
        .with_threads(threads);
    pipeline.run(&crashed_job())
}

/// PageRank(5) on LiveJournal / HDRF / Local-9, machine 2 crashing at
/// superstep 3 with a checkpoint every 2.
fn crashed_job() -> Scenario {
    Scenario::new(
        Dataset::LiveJournal,
        Strategy::Hdrf,
        &ClusterSpec::local_9(),
        EngineKind::PowerGraph,
        App::PageRankFixed(5),
    )
    .with_faults(FaultPlan::crash_at(3, 2), CheckpointPolicy::every(2))
}

#[test]
fn same_seed_yields_byte_identical_artifacts() {
    let sink1 = TelemetrySink::recording();
    let sink2 = TelemetrySink::recording();
    traced_job(&sink1);
    traced_job(&sink2);
    let json = sink1.chrome_trace_json();
    assert!(!json.is_empty());
    assert_eq!(
        json,
        sink2.chrome_trace_json(),
        "trace JSON not deterministic"
    );
    assert_eq!(
        sink1.metrics_csv(),
        sink2.metrics_csv(),
        "metrics CSV not deterministic"
    );
    assert_eq!(
        sink1.summary(),
        sink2.summary(),
        "summary not deterministic"
    );
}

#[test]
fn thread_count_changes_no_artifact() {
    // The deterministic-parallelism contract for telemetry: threads change
    // speed only, so every thread count yields the result and the trace,
    // metrics and summary of the one-thread run, byte for byte.
    let sink1 = TelemetrySink::recording();
    let r1 = traced_job_threads(&sink1, 1);
    for threads in [2, 4, 7] {
        let sink = TelemetrySink::recording();
        let r = traced_job_threads(&sink, threads);
        assert_eq!(format!("{r1:?}"), format!("{r:?}"), "result at {threads}");
        assert_eq!(
            sink1.chrome_trace_json(),
            sink.chrome_trace_json(),
            "trace at {threads} threads"
        );
        assert_eq!(
            sink1.metrics_csv(),
            sink.metrics_csv(),
            "metrics at {threads} threads"
        );
        assert_eq!(sink1.summary(), sink.summary(), "summary at {threads}");
    }
}

#[test]
fn trace_covers_ingress_supersteps_phases_and_faults() {
    let sink = TelemetrySink::recording();
    let result = traced_job(&sink);
    let spans = sink.spans();

    let ingress: Vec<_> = spans
        .iter()
        .filter(|s| s.cat == "ingress" && s.track == distgraph::telemetry::span::Track::Cluster)
        .collect();
    assert_eq!(ingress.len(), 1, "exactly one cluster ingress span");
    assert_eq!(ingress[0].name, "ingress.HDRF");
    assert!(ingress[0].start_s.abs() < 1e-12);
    assert!((ingress[0].dur_s - result.ingress_seconds).abs() < 1e-9);

    // One superstep span per executed superstep (including replays), each
    // starting at or after the end of ingress.
    let supersteps: Vec<_> = spans.iter().filter(|s| s.cat == "superstep").collect();
    assert_eq!(supersteps.len() as u32, result.supersteps);
    for s in &supersteps {
        assert!(s.start_s >= result.ingress_seconds - 1e-9);
    }

    // Phase decomposition nests under supersteps: the nesting depths the
    // summary reports must include depth >= 1 entries.
    assert!(spans
        .iter()
        .any(|s| s.cat == "phase" && s.name == "compute"));
    assert!(spans
        .iter()
        .any(|s| s.cat == "phase" && s.name == "network"));
    assert!(sink.nesting_depths().iter().any(|&d| d >= 1));

    // Per-machine tracks carry load and work spans.
    assert!(spans.iter().any(|s| s.cat == "ingress"
        && s.name == "load"
        && s.track != distgraph::telemetry::span::Track::Cluster));
    assert!(spans.iter().any(|s| s.cat == "machine" && s.name == "work"));

    // The injected crash and checkpoint policy show up as fault spans.
    assert!(
        spans
            .iter()
            .any(|s| s.cat == "fault" && s.name == "checkpoint.0"),
        "missing checkpoint span"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.cat == "fault" && s.name == "recovery.m2"),
        "missing recovery span"
    );
    assert!(sink.counter("fault.crashes") == 1);
    assert!(sink.counter("fault.checkpoints") >= 1);
    assert_eq!(
        sink.counter("engine.supersteps"),
        u64::from(result.supersteps)
    );
}

fn traced_elastic_job(
    sink: &TelemetrySink,
    elastic: distgraph::elastic::ElasticConfig,
) -> gp_bench::JobResult {
    let mut pipeline = Pipeline::new(0.05, 11)
        .with_telemetry(sink.clone())
        .with_threads(1);
    pipeline.run(&crashed_job().with_elastic(elastic))
}

#[test]
fn empty_elastic_plan_keeps_artifacts_bit_identical() {
    // The elastic contract mirrors the telemetry one: an *enabled* elastic
    // config whose plan is empty must leave every threads-1 artifact
    // byte-for-byte unchanged against a run that never mentions elasticity.
    use distgraph::elastic::{ElasticConfig, ElasticPlan};
    let sink_plain = TelemetrySink::recording();
    let sink_empty = TelemetrySink::recording();
    let r_plain = traced_job(&sink_plain);
    let r_empty = traced_elastic_job(&sink_empty, ElasticConfig::new(ElasticPlan::none()));
    assert_eq!(format!("{r_plain:?}"), format!("{r_empty:?}"), "job result");
    assert_eq!(
        sink_plain.chrome_trace_json(),
        sink_empty.chrome_trace_json(),
        "trace JSON"
    );
    assert_eq!(
        sink_plain.metrics_csv(),
        sink_empty.metrics_csv(),
        "metrics CSV"
    );
    assert_eq!(sink_plain.summary(), sink_empty.summary(), "summary");
    assert!(
        !sink_empty
            .chrome_trace_json()
            .contains("\"cat\":\"elastic\""),
        "an empty plan must emit no elastic spans"
    );
}

#[test]
fn trace_covers_elastic_events() {
    use distgraph::elastic::{ElasticConfig, ElasticPlan};
    let sink = TelemetrySink::recording();
    let result = traced_elastic_job(&sink, ElasticConfig::new(ElasticPlan::preempt_at(3, 2, 3)));
    assert_eq!(result.scale_events, 1);
    assert_eq!(result.evacuations, 1, "warning window of 3 must suffice");
    let spans = sink.spans();
    assert!(
        spans
            .iter()
            .any(|s| s.cat == "elastic" && s.name == "preempt.m2"),
        "missing preempt span"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.cat == "elastic" && s.name == "evacuation.m2"),
        "missing evacuation span"
    );
    assert_eq!(sink.counter("elastic.evacuations"), 1);
    assert!(sink.counter("elastic.evacuated_bytes") > 0);
    // Elastic events survive into the exported artifacts.
    assert!(sink.chrome_trace_json().contains("\"cat\":\"elastic\""));
    assert!(sink.metrics_csv().contains("elastic.evacuations"));
}

/// LiveJournal at scale 0.1 on EC2-16, Grid, PageRank(10): machine 3
/// crashes at superstep 6, state checkpoints every 4 steps, and every link
/// drops 5 % of its packets under reliable delivery.
fn lossy_crash_config(sink: TelemetrySink) -> EngineConfig {
    let spec = ClusterSpec::ec2_16();
    let mut plan = FaultPlan::uniform_flaky(0.05, spec.machines, 100);
    plan.push(FaultEvent {
        superstep: 6,
        machine: 3,
        kind: FaultKind::Crash,
    });
    EngineConfig::new(spec)
        .with_fault_plan(plan)
        .with_checkpoint(CheckpointPolicy::every(4))
        .with_comms(CommsConfig::reliable())
        .with_telemetry(sink)
}

#[test]
fn mid_job_spans_sit_on_the_final_superstep_boundaries() {
    // Every pass changes step walls after the ones before it, so a span is
    // only where it belongs if it is timed from the final walls: a
    // checkpoint ends with its step; a recovery, forced recovery or
    // scale-out starts at its step's end; a departure and its evacuation
    // start with the first step of the warning window; a retry window or
    // backup task starts with its step.
    use distgraph::elastic::{ElasticConfig, ElasticEvent, ElasticKind, ElasticPlan};
    use distgraph::engine::RepairPolicy;
    let g = Dataset::LiveJournal.generate(0.1, 42);
    let a = Strategy::Grid
        .build()
        .partition(&g, &PartitionContext::new(16))
        .assignment;
    let mut plan = ElasticPlan::scale_out_at(2, 4);
    plan.push(ElasticEvent {
        superstep: 8,
        kind: ElasticKind::Preempt {
            machine: 5,
            warning_steps: 3,
        },
    });
    let elastic = ElasticConfig::new(plan).with_repair(RepairPolicy::AlwaysRepartition);
    let jobs = [
        ("crash + loss", None),
        ("crash + loss + scale-out + preemption", Some(elastic)),
    ];
    for (job, elastic) in jobs {
        let sink = TelemetrySink::recording();
        let mut config = lossy_crash_config(sink.clone());
        if let Some(elastic) = &elastic {
            config = config.with_elastic(elastic.clone());
        }
        let (_, report) = Engine::new(config, Model::Sync)
            .run(&g, &a, &PageRank::fixed(10))
            .unwrap();
        let spans = sink.spans();
        let steps = spans.iter().filter(|s| s.cat == "superstep");
        let starts: Vec<f64> = steps.clone().map(|s| s.start_s).collect();
        let ends: Vec<f64> = steps.map(|s| s.start_s + s.dur_s).collect();
        let on = |bounds: &[f64], t: f64| bounds.iter().any(|b| (b - t).abs() < 1e-9);
        let mut kinds = std::collections::BTreeSet::new();
        for s in spans
            .iter()
            .filter(|s| ["fault", "elastic", "net"].contains(&s.cat))
        {
            let kind = s.name.split('.').next().expect("a span name");
            let anchored = match kind {
                "checkpoint" => on(&ends, s.start_s + s.dur_s),
                "recovery" | "forced_recovery" | "scale_out" => on(&ends, s.start_s),
                "preempt" | "drain" | "evacuation" | "retry" | "speculate" => {
                    on(&starts, s.start_s)
                }
                other => panic!("{job}: unexpected mid-job span {other}"),
            };
            assert!(
                anchored,
                "{job}: {} at {:.6} s is off its superstep boundary",
                s.name, s.start_s
            );
            kinds.insert(kind);
        }
        let mut expected = vec!["checkpoint", "recovery", "retry"];
        if elastic.is_some() {
            assert_eq!(report.evacuations, 1, "{job}: the warning must suffice");
            expected.extend(["evacuation", "preempt", "scale_out"]);
        }
        for kind in expected {
            assert!(kinds.contains(kind), "{job}: no {kind} span in {kinds:?}");
        }
    }
}

#[test]
fn chrome_trace_matches_golden_file() {
    // A small hand-built trace pins the exporter's exact byte format:
    // metadata events first, integer-microsecond complete events sorted by
    // (tid, start asc, duration desc) so parents precede children.
    let sink = TelemetrySink::recording();
    sink.record_span("ingress", "ingress.Grid".to_string(), 0.0, 2.0);
    sink.record_machine_span("ingress", "load".to_string(), 0, 0.0, 1.5);
    sink.record_machine_span("ingress", "load".to_string(), 1, 0.0, 2.0);
    sink.set_time_offset(2.0);
    sink.record_span("superstep", "superstep.0".to_string(), 0.0, 1.0);
    sink.record_span("phase", "compute".to_string(), 0.0, 0.5);
    sink.record_span("phase", "network".to_string(), 0.5, 0.25);
    sink.record_span("phase", "sync".to_string(), 0.75, 0.25);
    sink.record_machine_span("machine", "work".to_string(), 1, 0.0, 0.5);
    // The gp-net categories added in the unreliable-network model: a
    // per-machine retry window and a cluster-track speculation span.
    sink.record_machine_span("net", "retry".to_string(), 0, 1.0, 0.25);
    sink.record_span("net", "speculate.m0->m1".to_string(), 1.0, 0.5);
    // Two more machine-track spans of their own category, starting at the
    // same instant on different tracks.
    sink.record_machine_span("par", "par.ingress.worker0".to_string(), 0, 2.0, 0.75);
    sink.record_machine_span("par", "par.ingress.worker1".to_string(), 1, 2.0, 0.75);
    // The elastic-category spans from mid-job cluster events: a cluster-track
    // scale-out decision and the evacuation window streaming a preempted
    // machine's masters to surviving replicas.
    sink.record_span("elastic", "scale_out.k9".to_string(), 3.0, 0.5);
    sink.record_machine_span("elastic", "evacuation.m1".to_string(), 1, 3.0, 0.25);
    assert_eq!(sink.chrome_trace_json(), include_str!("golden_trace.json"));
}
