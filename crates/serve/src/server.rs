//! The serve loop: apply a traffic plan against a resident partitioned
//! graph, maintain replica sets incrementally, and repair drift.
//!
//! The loop is strictly sequential in plan order, and every decision it
//! makes — placements, delete victims, query latencies, repair triggers —
//! is a pure function of `(base snapshot, plan, config)`. The batch ingress
//! that seeds the run is itself byte-identical at any thread count, so the
//! whole serve report is reproducible across runs *and* across `--threads`,
//! which the determinism tests and the CI smoke job both lock.

use crate::delta::IncrementalAssignment;
use crate::graph::LiveGraph;
use crate::latency::LatencyModel;
use crate::policy::{DriftAction, DriftPolicy};
use crate::report::{latency_table, Phase, QueryClass, RepairRecord, ServeReport};
use crate::traffic::{EventKind, TrafficPlan};
use gp_cluster::{ClusterSpec, CostRates};
use gp_core::{EdgeList, PartitionId, StreamingEdges, VertexId};
use gp_partition::{IngressReport, PartitionContext, Strategy};

/// Most vertices one k-hop traversal will visit (hub-rooted 2-hop queries
/// on power-law graphs would otherwise touch most of the graph).
pub const KHOP_CAP: usize = 1024;

/// Everything a serve run is parameterized by.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Partitioning strategy (batch ingress and incremental placement).
    pub strategy: Strategy,
    /// Partition count.
    pub num_partitions: u32,
    /// Seed for both partitioning and the master-pick policy.
    pub seed: u64,
    /// Cluster the run is priced on.
    pub spec: ClusterSpec,
    /// Drift thresholds and pacing.
    pub policy: DriftPolicy,
    /// Real thread count for the batch (re)partitioning passes. Never
    /// changes an output byte.
    pub threads: u32,
}

impl ServeConfig {
    /// Default serve setup: the given strategy on Local-9 with one
    /// partition per machine, seed 42, default policy.
    pub fn new(strategy: Strategy) -> Self {
        let spec = ClusterSpec::local_9();
        ServeConfig {
            strategy,
            num_partitions: spec.machines,
            seed: 42,
            spec,
            policy: DriftPolicy::default(),
            threads: 1,
        }
    }
}

/// Serving state bundled so repairs can rebuild it wholesale.
struct Resident {
    edge_parts: Vec<PartitionId>,
    delta: IncrementalAssignment,
    incr: Box<dyn gp_partition::IncrementalPartitioner>,
}

fn partition_ctx(cfg: &ServeConfig) -> PartitionContext {
    PartitionContext::new(cfg.num_partitions)
        .with_seed(cfg.seed)
        .with_threads(cfg.threads)
}

/// Batch-partition `edges`, then stand up the incremental state warmed with
/// the batch placements.
fn ingest(
    cfg: &ServeConfig,
    live: &LiveGraph,
    edges: &EdgeList,
    indices: &[u32],
    edge_parts: Option<Vec<PartitionId>>,
) -> (Resident, f64) {
    let ctx = partition_ctx(cfg);
    let outcome = cfg.strategy.build().partition(edges, &ctx);
    let mut parts = edge_parts.unwrap_or_else(|| vec![PartitionId(0); live.num_total()]);
    parts.resize(live.num_total(), PartitionId(0));
    for (pos, &idx) in indices.iter().enumerate() {
        parts[idx as usize] = outcome.assignment.edge_partition(pos);
    }
    let mut delta = IncrementalAssignment::new(live.num_vertices(), cfg.num_partitions, cfg.seed);
    let mut incr = cfg
        .strategy
        .incremental(cfg.num_partitions, live.num_vertices(), cfg.seed);
    for &idx in indices {
        let e = live.edge(idx);
        let p = parts[idx as usize];
        delta.add(e, p);
        incr.warm(e, p);
    }
    let report = IngressReport::from_outcome(cfg.strategy.label(), &outcome, ctx.num_loaders);
    let cost_s = CostRates.ingress_seconds(&report, &cfg.spec);
    (
        Resident {
            edge_parts: parts,
            delta,
            incr,
        },
        cost_s,
    )
}

/// Run `plan` against `base` under `cfg` and report.
pub fn serve(base: &dyn StreamingEdges, plan: &TrafficPlan, cfg: &ServeConfig) -> ServeReport {
    let mut live = LiveGraph::from_source(base);
    let (base_edges_list, base_indices) = live.live_edges();
    let el = EdgeList::with_vertex_count(base_edges_list, live.num_vertices())
        .expect("live edges lie in the vertex space");
    let (mut res, _) = ingest(cfg, &live, &el, &base_indices, None);

    let model = LatencyModel::new(cfg.spec.clone());
    let base_rf = res.delta.replication_factor();
    let base_imbalance = res.delta.edge_imbalance();
    let mut report = ServeReport {
        strategy: cfg.strategy.label(),
        cluster: cfg.spec.name,
        num_partitions: cfg.num_partitions,
        seed: cfg.seed,
        sessions: 0,
        horizon_s: plan.horizon_s,
        base_edges: live.base_count(),
        final_edges: 0,
        inserts: 0,
        deletes: 0,
        queries: 0,
        base_rf,
        final_rf: 0.0,
        base_imbalance,
        final_imbalance: 0.0,
        repairs: Vec::new(),
        latency: latency_table(),
    };

    // Baseline the drift policy measures RF growth against; reset by a
    // repartition, which re-earns the batch quality.
    let mut rf_baseline = base_rf;
    let mut last_repair_s = 0.0f64;
    let mut degraded_until = 0.0f64;
    let mut churn_since_check = 0u64;

    // k-hop scratch, sized once: a traversal never visits more than the cap.
    let mut visited: Vec<VertexId> = Vec::with_capacity(KHOP_CAP);

    for ev in &plan.events {
        report.sessions = report.sessions.max(ev.session + 1);
        let now = ev.time_s;
        let phase = if now < degraded_until {
            Phase::Degraded
        } else {
            Phase::Steady
        };
        match ev.kind {
            EventKind::Insert(e) => {
                let p = res.incr.assign(live.num_total() as u64, e);
                live.insert(e);
                res.edge_parts.push(p);
                res.delta.add(e, p);
                report.inserts += 1;
                churn_since_check += 1;
            }
            EventKind::Delete { draw } => {
                if let Some(idx) = live.resolve_delete(draw) {
                    let e = live.edge(idx);
                    let p = res.edge_parts[idx as usize];
                    live.delete(idx);
                    res.delta.remove(e, p);
                    res.incr.retire(e, p);
                    report.deletes += 1;
                    churn_since_check += 1;
                }
            }
            EventKind::KHop { start, hops } => {
                live.k_hop(start, hops, KHOP_CAP, &mut visited);
                // The price only asks whether the masters span more than one
                // partition, so stop at the first master that differs from
                // the root's (`visited[0]` is `start`).
                let home = res.delta.master_of(start);
                let distributed = visited.iter().any(|&v| res.delta.master_of(v) != home);
                let mut t = model.k_hop_seconds(visited.len(), distributed, hops);
                if phase == Phase::Degraded {
                    t = model.degraded(t);
                }
                let class = if hops <= 1 {
                    QueryClass::KHop1
                } else {
                    QueryClass::KHop2
                };
                report.record_latency(class, phase, t);
                report.queries += 1;
            }
            EventKind::ReadState { vertex } => {
                let home = PartitionId(ev.session % cfg.num_partitions);
                let remote = res.delta.master_of(vertex) != home;
                let mut t = model.state_read_seconds(remote);
                if phase == Phase::Degraded {
                    t = model.degraded(t);
                }
                report.record_latency(QueryClass::State, phase, t);
                report.queries += 1;
            }
        }

        if churn_since_check >= cfg.policy.check_every {
            churn_since_check = 0;
            match cfg
                .policy
                .evaluate(&res.delta, rf_baseline, now, last_repair_s)
            {
                DriftAction::None => {}
                DriftAction::Rebalance { from } => {
                    let to = res.delta.least_loaded();
                    let loads = res.delta.edge_counts();
                    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
                    let excess = (loads[from.index()] as f64 - mean).ceil() as i64;
                    let headroom = (mean.floor() as i64) - loads[to.index()] as i64;
                    let target = excess.min(headroom).max(1) as usize;
                    let moved =
                        overlap_ranked_moves(&live, &res.edge_parts, &res.delta, from, to, target);
                    let mut new_mirrors = 0u64;
                    for &idx in &moved {
                        let e = live.edge(idx);
                        // Count before the move mutates the replica sets:
                        // an endpoint already replicated on `to` needs no
                        // new mirror registration.
                        new_mirrors += u64::from(!res.delta.replicas(e.src).any(|p| p == to.0));
                        new_mirrors += u64::from(!res.delta.replicas(e.dst).any(|p| p == to.0));
                        res.delta.move_edge(e, from, to);
                        res.incr.retire(e, from);
                        res.incr.warm(e, to);
                        res.edge_parts[idx as usize] = to;
                    }
                    let bytes = moved.len() as f64 * CostRates::EDGE_WIRE_BYTES
                        + new_mirrors as f64 * CostRates::MIRROR_SETUP_BYTES;
                    let cost_s =
                        CostRates.network_seconds(bytes, &cfg.spec) + 2.0 * cfg.spec.latency_s;
                    degraded_until = now + cost_s;
                    last_repair_s = now;
                    report.repairs.push(RepairRecord {
                        time_s: now,
                        kind: "rebalance",
                        detail: format!("moved {} edges p{} -> p{}", moved.len(), from.0, to.0),
                        cost_s,
                    });
                }
                DriftAction::Repartition => {
                    let (edges, indices) = live.live_edges();
                    let count = edges.len();
                    let el = EdgeList::with_vertex_count(edges, live.num_vertices())
                        .expect("live edges lie in the vertex space");
                    let parts = std::mem::take(&mut res.edge_parts);
                    let (next, cost_s) = ingest(cfg, &live, &el, &indices, Some(parts));
                    res = next;
                    rf_baseline = res.delta.replication_factor();
                    degraded_until = now + cost_s;
                    last_repair_s = now;
                    report.repairs.push(RepairRecord {
                        time_s: now,
                        kind: "repartition",
                        detail: format!("re-ingressed {count} live edges"),
                        cost_s,
                    });
                }
            }
        }
    }

    report.final_edges = live.num_alive();
    report.final_rf = res.delta.replication_factor();
    report.final_imbalance = res.delta.edge_imbalance();
    report
}

/// Pick which of `from`'s live edges a rebalance ships to `to`: rank by how
/// many endpoints already have a replica on `to` (those moves mint no new
/// mirrors — cheaper on the wire and kinder to the replication factor),
/// breaking ties by edge index so the choice stays deterministic. The old
/// policy — take the first `target` excess edges — is the all-zero-overlap
/// degenerate case of this ranking.
fn overlap_ranked_moves(
    live: &LiveGraph,
    parts: &[PartitionId],
    delta: &IncrementalAssignment,
    from: PartitionId,
    to: PartitionId,
    target: usize,
) -> Vec<u32> {
    let mut ranked: Vec<(std::cmp::Reverse<u32>, u32)> = live
        .live_indices_on(parts, from)
        .map(|idx| {
            let e = live.edge(idx);
            let overlap = u32::from(delta.replicas(e.src).any(|p| p == to.0))
                + u32::from(delta.replicas(e.dst).any(|p| p == to.0));
            (std::cmp::Reverse(overlap), idx)
        })
        .collect();
    ranked.sort_unstable();
    ranked.truncate(target);
    ranked.into_iter().map(|(_, idx)| idx).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{TrafficPlan, TrafficRates};

    fn base_graph() -> gp_core::EdgeList {
        gp_gen::barabasi_albert(2_000, 5, 3)
    }

    fn plan(g: &gp_core::EdgeList, horizon_s: f64) -> TrafficPlan {
        TrafficPlan::generate(9, g.num_vertices(), 3, horizon_s, &TrafficRates::default())
    }

    #[test]
    fn rebalance_prefers_edges_already_replicated_on_the_target() {
        // Partition 0 holds edges 0..=2; only edge 1's endpoints (2, 3)
        // also have replicas on partition 1 (via edges 3 and 4), so it
        // must be shipped first, then ties fall back to index order.
        let el = EdgeList::from_pairs(vec![(0, 1), (2, 3), (4, 5), (2, 6), (3, 6)]);
        let live = LiveGraph::from_source(&el);
        let parts: Vec<PartitionId> = [0u32, 0, 0, 1, 1].iter().map(|&p| PartitionId(p)).collect();
        let mut delta = IncrementalAssignment::new(7, 2, 0);
        for (i, &e) in el.edges().iter().enumerate() {
            delta.add(e, parts[i]);
        }
        let moved = overlap_ranked_moves(&live, &parts, &delta, PartitionId(0), PartitionId(1), 2);
        assert_eq!(moved, vec![1, 0]);
        // Everything-overlaps and nothing-overlaps degenerate to index order.
        let all = overlap_ranked_moves(&live, &parts, &delta, PartitionId(0), PartitionId(1), 9);
        assert_eq!(all, vec![1, 0, 2]);
    }

    #[test]
    fn reports_are_byte_identical_across_runs_and_threads() {
        let g = base_graph();
        let plan = plan(&g, 4.0);
        let mut cfg = ServeConfig::new(Strategy::Hdrf);
        cfg.seed = 7;
        let a = serve(&g, &plan, &cfg);
        let b = serve(&g, &plan, &cfg);
        cfg.threads = 3;
        let c = serve(&g, &plan, &cfg);
        assert_eq!(a.render(), b.render());
        assert_eq!(
            a.render(),
            c.render(),
            "thread count leaked into the report"
        );
    }

    #[test]
    fn counters_track_the_plan() {
        let g = base_graph();
        let plan = plan(&g, 4.0);
        let cfg = ServeConfig::new(Strategy::Random);
        let report = serve(&g, &plan, &cfg);
        assert_eq!(report.queries as usize, plan.query_count());
        let inserts = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Insert(_)))
            .count();
        assert_eq!(report.inserts as usize, inserts);
        // Deletes never outnumber what the plan scheduled.
        let deletes = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Delete { .. }))
            .count();
        assert!(report.deletes as usize <= deletes);
        assert_eq!(
            report.final_edges,
            report.base_edges + report.inserts as usize - report.deletes as usize
        );
        assert!(report.base_rf >= 1.0);
    }

    #[test]
    fn tight_imbalance_policy_triggers_rebalances() {
        let g = base_graph();
        let plan = plan(&g, 6.0);
        let mut cfg = ServeConfig::new(Strategy::Random);
        cfg.policy = DriftPolicy {
            max_imbalance: 1.0001,
            max_rf_growth: 1e9,
            min_gap_s: 0.5,
            check_every: 16,
        };
        let report = serve(&g, &plan, &cfg);
        assert!(
            report.repair_count("rebalance") >= 1,
            "no rebalance fired: {}",
            report.render()
        );
        assert!(report.render().contains("rebalances triggered:"));
    }

    #[test]
    fn tight_rf_policy_triggers_a_repartition_and_resets_the_baseline() {
        let g = base_graph();
        let plan = plan(&g, 6.0);
        let mut cfg = ServeConfig::new(Strategy::Hdrf);
        cfg.policy = DriftPolicy {
            max_imbalance: 1e9,
            // Any growth at all trips the wire.
            max_rf_growth: 1.0,
            min_gap_s: 1.0,
            check_every: 16,
        };
        let report = serve(&g, &plan, &cfg);
        assert!(
            report.repair_count("repartition") >= 1,
            "no repartition fired: {}",
            report.render()
        );
        // Repartitions re-earn batch quality: the final RF cannot drift
        // arbitrarily past the base.
        assert!(report.final_rf < report.base_rf * 2.0);
    }

    #[test]
    fn degraded_queries_are_recorded_during_repairs() {
        let g = base_graph();
        let plan = plan(&g, 6.0);
        let mut cfg = ServeConfig::new(Strategy::Random);
        cfg.policy = DriftPolicy {
            max_imbalance: 1.0001,
            max_rf_growth: 1e9,
            min_gap_s: 0.2,
            check_every: 8,
        };
        let report = serve(&g, &plan, &cfg);
        assert!(report.repair_count("rebalance") >= 1);
        let degraded: u64 = QueryClass::ALL
            .iter()
            .filter_map(|&c| report.latency(c, Phase::Degraded))
            .map(|h| h.count())
            .sum();
        assert!(degraded > 0, "no query landed in a degraded window");
    }

    #[test]
    fn stateless_serving_preserves_batch_placements_for_surviving_edges() {
        // For an exact (stateless) strategy, an edge that survives the whole
        // run must sit exactly where batch ingress put it.
        let g = base_graph();
        let plan = plan(&g, 3.0);
        let cfg = ServeConfig::new(Strategy::Random);
        let ctx = PartitionContext::new(cfg.num_partitions).with_seed(cfg.seed);
        let batch = cfg.strategy.build().partition(&g, &ctx);
        // Re-run serve but probe internal state via a fresh run's report
        // numbers: base stats must equal batch stats exactly.
        let report = serve(&g, &plan, &cfg);
        assert_eq!(report.base_rf, batch.assignment.replication_factor());
        assert_eq!(report.base_imbalance, batch.assignment.balance().imbalance);
    }
}
