//! The layer probes: every layer's public entry points once, at the fixed
//! `probe` sizes, under spans. The same battery runs at the end of every
//! traced run, whatever the workload, so any two traced runs give comparable
//! per-layer numbers. It replays one repetition of each workload at probe
//! size (their spans are the per-call timings) and adds the calls no
//! workload makes on its own: a bare decode pass, an in-memory partition for
//! the streaming overhead, a CSR freeze, the hook passes one by one, serving
//! with an empty plan, the same calls at one thread and at `T`.

use crate::check::Checks;
use crate::host::cpu_seconds;
use crate::sizes::PARTS;
use crate::workloads::engine_supersteps::{self as engine, PAGERANK_STEPS};
use crate::workloads::{ingress_stream as ingress, mt_scaling, paper_suite, serve_churn, Env, Rep};
use gp_apps::PageRank;
use gp_core::{for_each_edge, CsrGraph, StreamingEdges};
use gp_elastic::{SchedulePolicy, TenantJob, TenantScheduler};
use gp_engine::{
    apply_comms_model, apply_elastic_model, apply_fault_model, record_compute_telemetry,
    ReplicaTable, SyncGas,
};
use gp_partition::{Assignment, PartitionContext, Strategy, WINDOW_AUTO};
use gp_serve::{EventKind, IncrementalAssignment, TrafficPlan};
use gp_telemetry::TelemetrySink;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Per-layer values of one battery iteration, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Time `f` inside a span; returns its result and its seconds.
fn timed<R>(env: &Env, span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = env.tracer.span(span, f);
    (out, t0.elapsed().as_secs_f64())
}

/// Run one workload repetition as a section of the battery: its checks and
/// exact counts are kept, and the span-log range it covers is returned.
fn section(
    env: &Env,
    checks: &mut Checks,
    values: &mut Values,
    f: impl FnOnce() -> Rep,
) -> Range<usize> {
    let from = env.tracer.mark();
    let rep = f();
    checks.absorb(rep.checks);
    for (name, count) in rep.counts {
        values.insert(name, count as f64);
    }
    from..env.tracer.mark()
}

/// One iteration of the battery. Needs an enabled tracer: most values are
/// read back from the spans the workloads' own code records.
pub fn battery(env: &Env, checks: &mut Checks) -> Values {
    let t = env.tracer;
    // `<span>_ms` is the total of the spans named `<span>` in a section.
    let span_ms = |v: &mut Values, range: &Range<usize>, metrics: &[&'static str]| {
        for metric in metrics {
            let span = metric.strip_suffix("_ms").expect("a `_ms` metric");
            v.insert(metric, t.seconds_in(range.clone(), span) * 1e3);
        }
    };
    let mut v = Values::new();

    // --- Set-ups: generators, store builds, text parse, traffic plan.
    let from = t.mark();
    let suite = paper_suite::setup(env);
    let mt = mt_scaling::setup(env);
    let serve = serve_churn::setup(env);
    let setups = from..t.mark();
    let graph = &mt.engine.graph;
    let edges = graph.num_edges();
    let store_edges = mt.ingress.stats.num_edges;
    span_ms(
        &mut v,
        &setups,
        &[
            "gen.generate_ms",
            "store.build_ms",
            "serve.plan_generate_ms",
        ],
    );
    v.insert(
        "gen.edges_per_s",
        (suite.dataset_edges + env.sizes.graph_edges) as f64
            / t.seconds_in(setups.clone(), "gen.generate"),
    );
    v.insert("store.bytes_per_edge", mt.ingress.stats.bytes_per_edge());
    v.insert(
        "core.text_parse_edges_per_s",
        edges as f64 / t.seconds_in(setups.clone(), "core.text_parse"),
    );

    // --- One repetition of each single-thread workload.
    let r = section(env, checks, &mut v, || paper_suite::rep(env, &suite));
    span_ms(
        &mut v,
        &r,
        &[
            "bench.tables_ms",
            "bench.ch5_ms",
            "bench.ch6_ms",
            "bench.ch7_ms",
            "bench.ch8_ms",
            "bench.ch9_ms",
            "bench.ch10_13_ms",
            "bench.ablations_ms",
            "bench.render_ms",
        ],
    );

    let r = section(env, checks, &mut v, || ingress::rep(env, &mt.ingress));
    span_ms(
        &mut v,
        &r,
        &[
            "store.open_verify_ms",
            "partition.random_ms",
            "partition.grid_ms",
            "partition.hdrf_ms",
            "partition.hdrf_auto_ms",
            "partition.oblivious_ms",
            "partition.hybrid_ms",
            "partition.hginger_ms",
            "partition.vebo_ms",
            "partition.report_ms",
            "partition.export_ms",
        ],
    );
    let streamed_random_s = t.seconds_in(r, "partition.random");

    let r = section(env, checks, &mut v, || engine::rep(env, &mt.engine));
    span_ms(
        &mut v,
        &r,
        &[
            "engine.sync_pagerank_ms",
            "engine.hybrid_pagerank_ms",
            "engine.pregel_pagerank_ms",
            "engine.sync_wcc_ms",
            "engine.sync_sssp_ms",
            "engine.async_coloring_ms",
            "engine.hybrid_kcore_ms",
        ],
    );
    let sync_pagerank_s = t.seconds_in(r, "engine.sync_pagerank");

    let r = section(env, checks, &mut v, || serve_churn::rep(env, &serve));
    span_ms(&mut v, &r, &["serve.render_ms"]);
    let serve_hdrf_s = t.seconds_in(r.clone(), "serve.run_hdrf");
    let serve_1d_s = t.seconds_in(r, "serve.run_1d");

    // --- The same calls at one thread and at T: speed-up and CPU inflation.
    let threads = mt_scaling::threads();
    let cpu0 = cpu_seconds();
    let seq = section(env, checks, &mut v, || mt_scaling::rep(env, &mt, 1, false));
    let cpu1 = cpu_seconds();
    let par = section(env, checks, &mut v, || {
        mt_scaling::rep(env, &mt, threads, true)
    });
    let cpu2 = cpu_seconds();
    for (metric, seq_span, par_span) in [
        ("par.speedup.random", "seq.random", "par.random"),
        ("par.speedup.hdrf_auto", "seq.hdrf_auto", "par.hdrf_auto"),
        (
            "par.speedup.oblivious_par",
            "seq.oblivious_par",
            "par.oblivious_par",
        ),
        (
            "par.speedup.sync_pagerank",
            "seq.sync_pagerank",
            "par.sync_pagerank",
        ),
        (
            "par.speedup.pregel_pagerank",
            "seq.pregel_pagerank",
            "par.pregel_pagerank",
        ),
    ] {
        let ratio = t.seconds_in(seq.clone(), seq_span) / t.seconds_in(par.clone(), par_span);
        v.insert(metric, ratio);
    }
    v.insert("par.cpu_inflation", (cpu2 - cpu1) / (cpu1 - cpu0));
    const CALLS: u32 = 200;
    let ((), s) = timed(env, "par.run_ordered", || {
        for _ in 0..CALLS {
            let tasks: Vec<_> = (0..threads).map(|i| move || i).collect();
            std::hint::black_box(gp_par::run_ordered(threads as usize, tasks));
        }
    });
    v.insert("par.run_ordered_call_us", s * 1e6 / f64::from(CALLS));

    // --- gp-store and gp-core on their own.
    let store = ingress::open_verified(env, &mt.ingress).expect("probe store opens");
    let ((), s) = timed(env, "store.scan", || {
        let mut sum = 0u64;
        for_each_edge(&store, 0..store.num_edges(), |e| sum += e.dst.0);
        std::hint::black_box(sum);
    });
    v.insert("store.scan_ms", s * 1e3);
    v.insert("store.scan_edges_per_s", store_edges as f64 / s);
    let (csr, csr_s) = timed(env, "core.csr_build", || CsrGraph::from_edge_list(graph));
    std::hint::black_box(csr);
    v.insert("core.csr_build_ms", csr_s * 1e3);

    // --- gp-partition: streaming overhead, freeze, speculation, incremental.
    let ctx = PartitionContext::new(PARTS).with_seed(env.seed);
    let memory = store.to_edge_list();
    let (outcome, memory_s) = timed(env, "partition.random_memory", || {
        Strategy::Random.build().partition(&memory, &ctx)
    });
    v.insert(
        "partition.stream_overhead_share",
        (streamed_random_s - memory_s) / streamed_random_s,
    );
    let placements = outcome.assignment.edge_partitions().to_vec();
    let (frozen, s) = timed(env, "partition.freeze", || {
        Assignment::from_edge_partitions(&memory, placements, PARTS, env.seed)
    });
    std::hint::black_box(frozen);
    v.insert("partition.freeze_ms", s * 1e3);
    let sink = TelemetrySink::recording();
    let recorded = ctx
        .clone()
        .with_window(WINDOW_AUTO)
        .with_telemetry(sink.clone());
    timed(env, "partition.hdrf_auto_recorded", || {
        Strategy::Hdrf.build().partition(&store, &recorded)
    });
    let metrics = sink.metrics();
    v.insert(
        "partition.spec_repair_rate",
        metrics.gauge("par.spec_repair_rate").unwrap_or(0.0),
    );
    v.insert(
        "partition.spec_shrinks",
        metrics.counter("par.spec_shrinks") as f64,
    );
    let inserts: Vec<_> = serve
        .plan
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Insert(edge) => Some(edge),
            _ => None,
        })
        .collect();
    let vertices = env.sizes.serve_vertices;
    let ((), s) = timed(env, "partition.incremental_assign", || {
        let mut rule = Strategy::Hdrf.incremental(PARTS, vertices, env.seed);
        let mut delta = IncrementalAssignment::new(vertices, PARTS, env.seed);
        for (i, &e) in inserts.iter().enumerate() {
            delta.add(e, rule.assign(i as u64, e));
        }
        std::hint::black_box(delta.replication_factor());
    });
    v.insert(
        "partition.incremental_assign_ns",
        s * 1e9 / inserts.len() as f64,
    );

    // --- gp-engine: replica table, the loop's self time, the hook passes.
    let assignment = &mt.engine.assignment;
    let (table, table_s) = timed(env, "engine.replica_table", || {
        ReplicaTable::build(graph, assignment)
    });
    std::hint::black_box(table);
    v.insert("engine.replica_table_ms", table_s * 1e3);
    v.insert(
        "engine.sync_loop_ns_per_edge_step",
        (sync_pagerank_s - csr_s - table_s) * 1e9 / (edges as f64 * f64::from(PAGERANK_STEPS)),
    );
    let hook_sink = TelemetrySink::recording();
    let composed = engine::composed_config(1).with_telemetry(hook_sink.clone());
    let (_, clean) =
        SyncGas::new(engine::config(1)).run(graph, assignment, &PageRank::fixed(PAGERANK_STEPS));
    let mut report = clean.clone();
    let (_, s) = timed(env, "engine.fault_hook", || {
        apply_fault_model(&mut report, &composed, assignment)
    });
    v.insert("engine.fault_hook_ms", s * 1e3);
    let (_, s) = timed(env, "engine.elastic_hook", || {
        apply_elastic_model(&mut report, &composed, assignment)
    });
    v.insert("engine.elastic_hook_ms", s * 1e3);
    let (_, s) = timed(env, "engine.comms_hook", || {
        apply_comms_model(&mut report, &composed)
    });
    v.insert("engine.comms_hook_ms", s * 1e3);
    let (_, s) = timed(env, "engine.telemetry_hook", || {
        record_compute_telemetry(&composed, &report)
    });
    v.insert("engine.telemetry_hook_ms", s * 1e3);

    // --- gp-elastic and gp-telemetry.
    let walls: Vec<f64> = report.steps.iter().map(|s| s.wall_seconds).collect();
    let bytes: Vec<f64> = report.steps.iter().map(|s| s.total_in_bytes()).collect();
    let jobs: Vec<TenantJob> = (0..4)
        .map(|i| {
            TenantJob::new(
                &format!("tenant{i}"),
                f64::from(i),
                walls.clone(),
                bytes.clone(),
            )
        })
        .collect();
    let scheduler = TenantScheduler::new(composed.spec.clone(), SchedulePolicy::FairShare);
    let (tenants, s) = timed(env, "elastic.tenant_schedule", || {
        scheduler.run(&jobs, &TelemetrySink::Disabled)
    });
    std::hint::black_box(tenants);
    v.insert("elastic.tenant_schedule_ms", s * 1e3);
    let (_, plain_s) = timed(env, "telemetry.job_disabled", || {
        engine::sync_pagerank(
            env,
            &mt.engine,
            "engine.composed",
            engine::composed_config(1),
        )
    });
    let job_sink = TelemetrySink::recording();
    let recording = engine::composed_config(1).with_telemetry(job_sink.clone());
    let (_, recorded_s) = timed(env, "telemetry.job_recording", || {
        engine::sync_pagerank(env, &mt.engine, "engine.composed", recording)
    });
    v.insert(
        "telemetry.recording_overhead_share",
        (recorded_s - plain_s) / plain_s,
    );
    let (exported, s) = timed(env, "telemetry.export", || {
        job_sink.chrome_trace_json().len() + job_sink.metrics_csv().len() + job_sink.summary().len()
    });
    std::hint::black_box(exported);
    v.insert("telemetry.export_ms", s * 1e3);

    // --- gp-serve: ingest alone, events alone, what repairs cost.
    let empty = TrafficPlan {
        seed: env.seed,
        horizon_s: env.sizes.serve_horizon_s,
        events: Vec::new(),
    };
    let hdrf = serve_churn::config(env, Strategy::Hdrf, f64::INFINITY);
    let (_, ingest_s) = timed(env, "serve.ingest", || {
        gp_serve::serve(&serve.store, &empty, &hdrf)
    });
    v.insert("serve.ingest_ms", ingest_s * 1e3);
    v.insert(
        "serve.events_per_s",
        serve.plan.events.len() as f64 / (serve_hdrf_s - ingest_s),
    );
    let loose = serve_churn::config(env, Strategy::OneD, f64::INFINITY);
    let (_, loose_s) = timed(env, "serve.run_1d_norepair", || {
        gp_serve::serve(&serve.store, &serve.plan, &loose)
    });
    v.insert("serve.repair_ms", (serve_1d_s - loose_s) * 1e3);
    v
}
