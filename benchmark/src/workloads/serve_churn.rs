//! `serve-churn`: `gp_serve::serve` over a power-law store for a simulated
//! horizon of churn-heavy traffic, twice per repetition — HDRF with repairs
//! off (the greedy incremental rule) and 1D with a tight imbalance threshold
//! (hash family; at least one rebalance fires). This drives gp-partition the
//! *other* way: one edge at a time through `IncrementalPartitioner`, with
//! reads interleaved, so a batch-kernel gain paid for by the incremental
//! path shows here as a loss.

use super::{Env, Rep};
use crate::check::{ensure, Checks, Fnv};
use crate::sizes::{CHURN_SCALE, PARTS, SESSIONS};
use gp_cluster::ClusterSpec;
use gp_gen::{build_powerlaw_store, PowerLawStreamParams};
use gp_partition::Strategy;
use gp_serve::{DriftPolicy, EventKind, ServeConfig, ServeReport, TrafficPlan, TrafficRates};
use gp_store::GraphStore;

/// What set-up leaves behind.
pub struct Inputs {
    /// The base graph, mapped.
    pub store: GraphStore,
    /// The traffic both runs replay.
    pub plan: TrafficPlan,
    /// Insert events in the plan.
    pub inserts: u64,
}

/// Build and map the store, draw the plan.
pub fn setup(env: &Env) -> Inputs {
    let t = env.tracer;
    let path = env.dir.join(format!("serve-{}.gps", env.sizes.label));
    let params = PowerLawStreamParams {
        num_vertices: env.sizes.serve_vertices,
        num_edges: env.sizes.serve_edges,
        ..Default::default()
    };
    t.span("store.build", || {
        build_powerlaw_store(&path, params, super::powerlaw_seed(env.seed))
    })
    .expect("store builds inside the checkout");
    let store = GraphStore::open(&path).expect("the store just built opens");
    let rates = TrafficRates::default().with_churn_scale(CHURN_SCALE);
    let plan = t.span("serve.plan_generate", || {
        TrafficPlan::generate(
            env.seed,
            env.sizes.serve_vertices,
            SESSIONS,
            env.sizes.serve_horizon_s,
            &rates,
        )
    });
    let inserts = plan
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Insert(_)))
        .count() as u64;
    Inputs {
        store,
        plan,
        inserts,
    }
}

/// Serving configuration on EC2-16; `max_imbalance` above any reachable
/// value switches balance repairs off.
pub fn config(env: &Env, strategy: Strategy, max_imbalance: f64) -> ServeConfig {
    ServeConfig {
        strategy,
        num_partitions: PARTS,
        seed: env.seed,
        spec: ClusterSpec::ec2_16(),
        policy: DriftPolicy {
            max_imbalance,
            max_rf_growth: f64::INFINITY,
            ..DriftPolicy::default()
        },
        threads: 1,
    }
}

/// The 1D run's rebalance threshold.
pub const TIGHT_IMBALANCE: f64 = 1.02;

/// Serve checks: the live edge count adds up, every query was answered,
/// quality figures are finite. Folds the rendered report into the digest.
pub fn check_report(
    env: &Env,
    inputs: &Inputs,
    report: &ServeReport,
    digest: &mut Fnv,
) -> Result<(), String> {
    let rendered = env.tracer.span("serve.render", || report.render());
    digest.bytes(rendered.as_bytes());
    ensure(report.inserts == inputs.inserts, || {
        format!("{} inserts applied of {}", report.inserts, inputs.inserts)
    })?;
    ensure(
        report.final_edges as u64 == report.base_edges as u64 + report.inserts - report.deletes,
        || {
            format!(
                "final live edges {} != base {} + inserts {} - deletes {}",
                report.final_edges, report.base_edges, report.inserts, report.deletes
            )
        },
    )?;
    ensure(report.queries == inputs.plan.query_count() as u64, || {
        format!(
            "{} queries answered of {}",
            report.queries,
            inputs.plan.query_count()
        )
    })?;
    ensure(
        report.final_rf.is_finite() && report.final_rf >= 1.0 && report.final_imbalance.is_finite(),
        || {
            format!(
                "final RF {} / imbalance {}",
                report.final_rf, report.final_imbalance
            )
        },
    )
}

/// One repetition; a work unit is one traffic event.
pub fn rep(env: &Env, inputs: &Inputs) -> Rep {
    let t = env.tracer;
    let mut checks = Checks::default();
    let mut repairs = 0;
    checks.op("serve hdrf", |d| {
        let cfg = config(env, Strategy::Hdrf, f64::INFINITY);
        let report = t.span("serve.run_hdrf", || {
            gp_serve::serve(&inputs.store, &inputs.plan, &cfg)
        });
        ensure(report.repairs.is_empty(), || {
            format!("{} repairs with repairs off", report.repairs.len())
        })?;
        check_report(env, inputs, &report, d)
    });
    checks.op("serve 1d", |d| {
        let cfg = config(env, Strategy::OneD, TIGHT_IMBALANCE);
        let report = t.span("serve.run_1d", || {
            gp_serve::serve(&inputs.store, &inputs.plan, &cfg)
        });
        repairs = report.repairs.len() as u64;
        ensure(report.repair_count("rebalance") >= 1, || {
            "no rebalance fired under the tight threshold".to_string()
        })?;
        check_report(env, inputs, &report, d)
    });
    let mut rep = Rep::new(checks, 2 * inputs.plan.events.len() as u64);
    rep.counts.insert("serve.repairs", repairs);
    rep
}
