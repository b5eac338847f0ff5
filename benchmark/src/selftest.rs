//! Self-test of the harness at `tiny` sizes: another seed changes the inputs
//! and still passes every check, a broken operation is counted and fails the
//! run, and both kinds of run report every metric `BENCHMARK.json` names.

use crate::check::{Checks, Fnv, Pins};
use crate::metrics::{result_json, END_TO_END, PER_LAYER};
use crate::run::{traced, untraced, Opts};
use crate::sizes::Sizes;
use crate::trace::Tracer;
use crate::workloads::{self, ingress_stream, Env, Rep, Workload};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{name}"));
    std::fs::create_dir_all(&dir).expect("benchmark/out/ is writable");
    dir
}

/// One set-up and one repetition of `W` at `seed`: (failed, digest).
fn one_rep<I>(w: &Workload<I>, seed: u64, dir: &std::path::Path) -> (Vec<String>, Fnv) {
    let (sizes, tracer) = (Sizes::tiny(), Tracer::new(false));
    let env = Env {
        sizes: &sizes,
        seed,
        dir,
        pins: None,
        tracer: &tracer,
    };
    let rep = (w.rep)(&env, &(w.setup)(&env));
    assert!(rep.work > 0 && rep.checks.attempted > 0);
    (rep.checks.failures, rep.checks.digest)
}

fn seed_changes_inputs_and_passes<I>(w: Workload<I>) {
    let (name, dir) = (w.name, scratch(w.name));
    let (failures_42, digest_42) = one_rep(&w, 42, &dir);
    let (failures_7, digest_7) = one_rep(&w, 7, &dir);
    assert_eq!(failures_42, Vec::<String>::new(), "{name} at seed 42");
    assert_eq!(failures_7, Vec::<String>::new(), "{name} at seed 7");
    assert_ne!(
        digest_42, digest_7,
        "{name}: the seed did not reach the inputs"
    );
    assert_eq!(
        digest_42,
        one_rep(&w, 42, &dir).1,
        "{name}: same seed, other output"
    );
    std::fs::remove_dir_all(dir).expect("remove scratch");
}

#[test]
fn seed_7_changes_the_inputs_and_every_check_still_passes() {
    seed_changes_inputs_and_passes(workloads::paper_suite());
    seed_changes_inputs_and_passes(workloads::ingress_stream());
    seed_changes_inputs_and_passes(workloads::engine_supersteps());
    seed_changes_inputs_and_passes(workloads::serve_churn());
    seed_changes_inputs_and_passes(workloads::mt_scaling());
}

/// `ingress-stream` with one extra operation that claims one edge too many.
fn wrong_edge_count() -> Workload<ingress_stream::Inputs> {
    fn rep(env: &Env, inputs: &ingress_stream::Inputs) -> Rep {
        let mut rep = ingress_stream::rep(env, inputs);
        let mut broken = Checks::default();
        broken.op("wrong |E|", |d| {
            let store = ingress_stream::open_verified(env, inputs)?;
            let ctx = gp_partition::PartitionContext::new(crate::sizes::PARTS);
            let outcome = gp_partition::Strategy::Random
                .build()
                .partition(&store, &ctx);
            ingress_stream::check_partition("x", &outcome, inputs.stats.num_edges + 1, None, d)
        });
        rep.checks.absorb(broken);
        rep
    }
    Workload {
        rep,
        ..workloads::ingress_stream()
    }
}

fn opts<'a>(sizes: &'a Sizes, pins: &'a Pins, dir: &'a std::path::Path) -> Opts<'a> {
    Opts {
        seed: 42,
        seconds: 0.01,
        sizes,
        pins,
        dir,
        trace_path: dir.join("trace.json"),
    }
}

#[test]
fn a_broken_operation_is_counted_and_fails_the_run() {
    let (dir, sizes, pins) = (scratch("broken"), Sizes::tiny(), Pins::default());
    let outcome = untraced(&opts(&sizes, &pins, &dir), &wrong_edge_count());
    // One failure per repetition: the warm-up and the three timed ones.
    assert_eq!(outcome.checks.failed, 4);
    assert!(!outcome.passed(), "a failed check must fail the run");
    assert!(outcome.checks.failures[0].starts_with("wrong |E|: placed 20000 edges of 20001"));
    assert!(outcome.text.contains("FAILED x4 wrong |E|"));
    let line = result_json(
        outcome.checks.attempted,
        outcome.checks.failed,
        &outcome.metrics,
    );
    assert!(line.starts_with("{\"correct\": false, \"attempted\": "));
    assert!(line.contains("\"failed\": 4, \"metrics\": {\"wall_s\""));
    std::fs::remove_dir_all(dir).expect("remove scratch");
}

#[test]
fn untraced_run_reports_every_end_to_end_metric_with_median_and_n() {
    let (dir, sizes, pins) = (scratch("untraced"), Sizes::tiny(), Pins::default());
    let outcome = untraced(&opts(&sizes, &pins, &dir), &workloads::ingress_stream());
    assert!(outcome.passed(), "{}", outcome.text);
    let names: Vec<_> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, END_TO_END);
    assert!(outcome
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value > 0.0));
    assert!(outcome.text.contains("n 3)"), "{}", outcome.text);
    assert!(outcome.text.contains("host.nproc"));
    std::fs::remove_dir_all(dir).expect("remove scratch");
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_writes_a_chrome_trace() {
    let (dir, sizes, pins) = (scratch("traced"), Sizes::tiny(), Pins::default());
    let outcome = traced(&opts(&sizes, &pins, &dir), &workloads::engine_supersteps());
    assert!(outcome.passed(), "{}", outcome.text);
    let names: Vec<_> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, PER_LAYER);
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .expect(name)
            .value
    };
    // The engines do the work here; no partitioner or store span fires in a
    // repetition, and the shares of one repetition add up to all of it.
    assert!(value("share.engine") > 0.5);
    assert_eq!(value("share.partition"), 0.0);
    let shares: f64 = PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("share."))
        .map(|(n, _)| value(n))
        .sum();
    assert!((shares - 1.0).abs() < 0.02, "shares add up to {shares}");
    assert!(value("engine.supersteps") > 0.0 && value("serve.repairs") >= 1.0);
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace");
    assert!(trace.matches("\"ph\":\"X\"").count() > 100);
    assert!(trace.contains("\"phase\":\"probe\"") && trace.contains("\"phase\":\"rep\""));
    std::fs::remove_dir_all(dir).expect("remove scratch");
}
