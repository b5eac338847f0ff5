//! Engine configuration and compute-phase reporting.

use gp_cluster::{ClusterSpec, CostRates};
use gp_elastic::{ElasticConfig, EvacuationCost};
use gp_fault::{CheckpointPolicy, FaultPlan, RecoveryCost};
use gp_net::CommsConfig;
use gp_par::ParConfig;
use gp_partition::Assignment;
use gp_telemetry::TelemetrySink;

/// Configuration shared by all engines: the cluster being simulated and the
/// mid-job models layered on it. Byte sizes are `gp_cluster::CostRates`'
/// constants and work units per operation are the accountant's.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated cluster.
    pub spec: ClusterSpec,
    /// Cap on supersteps (safety net on top of the program's own cap).
    pub max_supersteps: u32,
    /// Enable PowerGraph's gather (delta) caching: a vertex whose gather
    /// neighborhood did not change since its last apply reuses its cached
    /// accumulator instead of re-gathering — skipping the gather work *and*
    /// the mirror→master partial-aggregate messages for that vertex.
    /// Results are unchanged; only cost is. Off by default, as in the
    /// paper's experiments.
    pub delta_caching: bool,
    /// Scheduled machine faults applied to this run (crashes, degraded
    /// links, stragglers). Empty by default — no faults ever fire.
    pub fault_plan: FaultPlan,
    /// Periodic checkpointing of vertex state. Disabled by default; when
    /// enabled, snapshot writes are charged as real network load and
    /// barrier stalls, and crashes roll back to the last checkpoint
    /// instead of superstep 0.
    pub checkpoint: CheckpointPolicy,
    /// Telemetry sink receiving superstep/phase spans and engine metrics.
    /// Disabled by default, and guaranteed inert when disabled: the run's
    /// [`ComputeReport`] is bit-identical with or without instrumentation
    /// (the same contract as the inactive fault model).
    pub telemetry: TelemetrySink,
    /// Mid-job elasticity: a plan of scale-outs, drains and spot
    /// preemptions applied at superstep barriers, plus the policy deciding
    /// whether a scale-out re-places partitions. Empty by default — the
    /// machine set never changes and the hook is guaranteed inert.
    pub elastic: ElasticConfig,
    /// Communication-layer protocols: reliable delivery over flaky links
    /// and speculative straggler re-execution. Fully disabled by default,
    /// in which case flaky windows in the fault plan are inert (an
    /// idealized network delivers everything) and reports are
    /// bit-identical to pre-comms runs.
    pub comms: CommsConfig,
    /// Real threads driving the engine's superstep kernels. The default
    /// (1) runs today's sequential loops; any other value runs the
    /// deterministic parallel path, whose reports are guaranteed
    /// bit-identical to sequential at every thread count.
    pub par: ParConfig,
}

impl EngineConfig {
    /// Default configuration for a cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        EngineConfig {
            spec,
            max_supersteps: 10_000,
            delta_caching: false,
            fault_plan: FaultPlan::none(),
            checkpoint: CheckpointPolicy::disabled(),
            elastic: ElasticConfig::disabled(),
            telemetry: TelemetrySink::Disabled,
            comms: CommsConfig::disabled(),
            par: ParConfig::default(),
        }
    }

    /// Builder: run superstep kernels on `threads` real threads (0 = all
    /// available). Reports are bit-identical at any value.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.par = ParConfig::new(threads);
        self
    }

    /// Builder: enable gather/delta caching.
    pub fn with_delta_caching(mut self, on: bool) -> Self {
        self.delta_caching = on;
        self
    }

    /// Builder: schedule faults for this run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builder: checkpoint periodically.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Builder: schedule mid-job elasticity for this run.
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        self.elastic = elastic;
        self
    }

    /// Builder: record spans and metrics into `sink`.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Builder: enable communication-layer protocols.
    pub fn with_comms(mut self, comms: CommsConfig) -> Self {
        self.comms = comms;
        self
    }
}

/// Metrics for one synchronous superstep (or async epoch).
#[derive(Clone)]
pub struct SuperstepStats {
    /// Superstep index (0-based).
    pub superstep: u32,
    /// Vertices active at the start of the step.
    pub active_vertices: u64,
    /// Partial-aggregate messages mirror→master.
    pub gather_messages: u64,
    /// State-sync messages master→mirror.
    pub sync_messages: u64,
    /// Work units per machine this step.
    pub machine_work: Vec<f64>,
    /// Inbound network bytes per machine this step.
    pub machine_in_bytes: Vec<f64>,
    /// Outbound network bytes per machine this step (what each NIC sent;
    /// cluster-wide this mirrors the inbound total, but the per-machine
    /// split differs and is what a symmetric link degradation throttles).
    pub machine_out_bytes: Vec<f64>,
    /// Simulated wall-clock duration of the step.
    pub wall_seconds: f64,
    /// A re-execution appended by a crash or forced recovery. Transient
    /// faults, flaky windows and membership changes act on first
    /// executions only.
    pub(crate) replay: bool,
    /// What the mid-job passes did on this step, in the order they did it.
    pub(crate) events: Vec<StepEvent>,
}

impl SuperstepStats {
    /// Total inbound bytes across machines.
    pub fn total_in_bytes(&self) -> f64 {
        self.machine_in_bytes.iter().sum()
    }
}

/// The metrics only: the pass bookkeeping (`replay`, `events`) stays out,
/// so a report prints the same whichever passes produced it.
impl std::fmt::Debug for SuperstepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperstepStats")
            .field("superstep", &self.superstep)
            .field("active_vertices", &self.active_vertices)
            .field("gather_messages", &self.gather_messages)
            .field("sync_messages", &self.sync_messages)
            .field("machine_work", &self.machine_work)
            .field("machine_in_bytes", &self.machine_in_bytes)
            .field("machine_out_bytes", &self.machine_out_bytes)
            .field("wall_seconds", &self.wall_seconds)
            .finish()
    }
}

/// Something a mid-job pass did on one step. The passes only record it;
/// [`crate::telemetry_hook`] turns it into spans and counters once every
/// pass has run, on the step's final boundaries.
#[derive(Clone)]
pub(crate) enum StepEvent {
    /// A checkpoint of `bytes` whose `stall_s` ends the step.
    Checkpoint { stall_s: f64, bytes: f64 },
    /// A machine crashed at the step's end, where its re-fetch starts.
    Crash(u32, RecoveryCost),
    /// A departure warned too late to evacuate: a crash as far as pricing
    /// goes.
    ForcedRecovery(u32, RecoveryCost),
    /// `k` machines joined at the step's end, re-partitioning onto them in
    /// `reingress_s` when the repair policy chose to.
    ScaleOut { k: u32, reingress_s: Option<f64> },
    /// A machine drained or preempted after this step, warned `window_s`
    /// over its last `window_steps` steps; `evacuation` when that sufficed.
    Departure {
        machine: u32,
        drain: bool,
        window_steps: usize,
        window_s: f64,
        evacuation: Option<EvacuationCost>,
    },
    /// A flaky receive window on `machine`, busy `dur_s` from the step's start.
    Retry { machine: u32, dur_s: f64 },
    /// `(slow, backup, clone_s)`: the slow machine's task cloned onto the
    /// backup, running `clone_s` from the step's start.
    Speculate(usize, usize, f64),
}

/// Add an even share of `bytes` to every machine's cell except `except`'s:
/// a transfer one machine sends or receives, served by (or delivered to) all
/// of its peers. A no-op on a one-machine cluster.
pub(crate) fn spread_to_peers(cells: &mut [f64], except: usize, bytes: f64) {
    let machines = cells.len();
    if machines > 1 {
        let share = bytes / (machines - 1) as f64;
        for (m, cell) in cells.iter_mut().enumerate() {
            if m != except {
                *cell += share;
            }
        }
    }
}

/// The compute-phase outcome of an engine run.
#[derive(Debug, Clone, Default)]
pub struct ComputeReport {
    /// Application name.
    pub program: &'static str,
    /// Engine name.
    pub engine: &'static str,
    /// Per-superstep metrics.
    pub steps: Vec<SuperstepStats>,
    /// True if the run reached a fixed point (no active vertices) rather
    /// than hitting the superstep cap.
    pub converged: bool,
    /// Total bytes written by checkpoints (0 when checkpointing is off).
    pub checkpoint_bytes: f64,
    /// Wall-clock seconds spent re-fetching lost partitions after crashes
    /// (0 on a healthy run). Replayed supersteps' own wall time is inside
    /// `steps` instead.
    pub recovery_seconds: f64,
    /// Supersteps re-executed after crashes (their stats appear again in
    /// `steps`, in execution order).
    pub supersteps_replayed: u32,
    /// Extra bytes retransmitted (and duplicate-delivered) by the reliable
    /// delivery protocol over flaky links (0 without flaky windows or with
    /// retries disabled). Already folded into the steps' inbound bytes.
    pub retransmit_bytes: f64,
    /// Barrier time lost waiting out retransmission timeouts and delay
    /// spikes, seconds. Already folded into the steps' wall times.
    pub retry_timeout_seconds: f64,
    /// Backup tasks launched by speculative straggler mitigation.
    pub speculative_clones: u32,
    /// Wall-clock seconds recovered by taking first finishers (already
    /// subtracted from the steps' wall times; never exceeds the fault
    /// penalties it mitigates).
    pub speculation_saved_seconds: f64,
    /// Input bytes re-shipped to backup machines (already folded into the
    /// steps' inbound bytes).
    pub speculation_shipped_bytes: f64,
    /// Cluster-membership changes that fired (scale-outs + drains +
    /// preemptions; 0 without an elastic plan).
    pub scale_events: u32,
    /// Departures handled gracefully: the dying machine's masters drained
    /// to surviving replicas inside the warning window.
    pub evacuations: u32,
    /// Bytes of master state shipped by those evacuations (already folded
    /// into the steps' traffic).
    pub evacuated_bytes: f64,
    /// Departures whose warning window was too short to evacuate; they
    /// degenerated to crash recovery (priced into `recovery_seconds` and
    /// `supersteps_replayed`).
    pub forced_recoveries: u32,
    /// Wall-clock seconds spent re-partitioning onto a new machine set
    /// after scale-outs the repair policy accepted (0 otherwise). Like
    /// recovery transfers, kept out of `compute_seconds`.
    pub reingress_seconds: f64,
}

impl ComputeReport {
    /// A healthy report over `steps`; the fault/checkpoint counters start
    /// at zero.
    pub fn new(
        program: &'static str,
        engine: &'static str,
        steps: Vec<SuperstepStats>,
        converged: bool,
    ) -> Self {
        ComputeReport {
            program,
            engine,
            steps,
            converged,
            ..ComputeReport::default()
        }
    }

    /// Total simulated compute time — the paper's "computation time" metric,
    /// which "always excludes the ingress/partitioning time" (§4.3).
    /// Includes checkpoint stalls and replayed supersteps, but not the
    /// recovery transfer itself — see [`ComputeReport::wall_clock_seconds`].
    pub fn compute_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.wall_seconds).sum()
    }

    /// End-to-end compute-phase duration: every executed superstep
    /// (including checkpoint stalls and crash replays) plus the recovery
    /// transfers and any mid-job re-partitioning. Equals
    /// [`ComputeReport::compute_seconds`] on a healthy run.
    pub fn wall_clock_seconds(&self) -> f64 {
        self.compute_seconds() + self.recovery_seconds + self.reingress_seconds
    }

    /// Supersteps executed.
    pub fn supersteps(&self) -> u32 {
        self.steps.len() as u32
    }

    /// Total inbound network bytes, cluster-wide.
    pub fn total_in_bytes(&self) -> f64 {
        self.steps.iter().map(|s| s.total_in_bytes()).sum()
    }

    /// Mean per-machine inbound bytes (the y-axis of Figs 5.3/6.1/8.3).
    pub fn mean_machine_in_bytes(&self) -> f64 {
        let machines = self
            .steps
            .first()
            .map(|s| s.machine_in_bytes.len())
            .unwrap_or(0);
        if machines == 0 {
            0.0
        } else {
            self.total_in_bytes() / machines as f64
        }
    }

    /// Cumulative wall time at the end of each superstep — the Fig 9.1/9.2
    /// series.
    pub fn cumulative_seconds(&self) -> Vec<f64> {
        self.steps
            .iter()
            .scan(0.0, |acc, s| {
                *acc += s.wall_seconds;
                Some(*acc)
            })
            .collect()
    }

    /// Per-machine mean CPU utilization in percent: time spent doing work
    /// divided by wall time (Fig 8.4's y-axis).
    pub fn machine_cpu_percent(&self, config: &EngineConfig) -> Vec<f64> {
        let machines = config.spec.machines as usize;
        let mut busy = vec![0.0f64; machines];
        let rate = config.spec.compute_rate();
        for s in &self.steps {
            for (m, &w) in s.machine_work.iter().enumerate() {
                busy[m] += w / rate;
            }
        }
        let wall = self.compute_seconds().max(1e-12);
        busy.iter().map(|b| (b / wall * 100.0).min(100.0)).collect()
    }
}

/// Static per-machine memory for a loaded, partitioned graph: edges +
/// vertex images hosted by each machine.
pub fn base_memory_per_machine(
    assignment: &Assignment,
    config: &EngineConfig,
    extra_state_bytes: u64,
) -> Vec<f64> {
    let mut per = vec![0.0f64; config.spec.machines as usize];
    let images = assignment.replica_counts();
    for (p, (&e, &i)) in assignment.edge_counts().iter().zip(&images).enumerate() {
        per[config.spec.machine_of(p as u32) as usize] += CostRates.machine_bytes(e, i, 0) as f64;
    }
    for v in per.iter_mut() {
        *v += extra_state_bytes as f64;
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::ClusterSpec;

    fn step(i: u32, wall: f64, work: Vec<f64>, bytes: Vec<f64>) -> SuperstepStats {
        let out = bytes.iter().rev().copied().collect();
        SuperstepStats {
            superstep: i,
            active_vertices: 10,
            gather_messages: 5,
            sync_messages: 5,
            machine_work: work,
            machine_in_bytes: bytes,
            machine_out_bytes: out,
            wall_seconds: wall,
            replay: false,
            events: Vec::new(),
        }
    }

    fn report() -> ComputeReport {
        ComputeReport::new(
            "test",
            "sync-gas",
            vec![
                step(0, 1.0, vec![10.0, 20.0], vec![100.0, 200.0]),
                step(1, 2.0, vec![30.0, 10.0], vec![50.0, 50.0]),
            ],
            true,
        )
    }

    #[test]
    fn totals_add_up() {
        let r = report();
        assert!((r.compute_seconds() - 3.0).abs() < 1e-12);
        assert_eq!(r.supersteps(), 2);
        assert!((r.total_in_bytes() - 400.0).abs() < 1e-12);
        assert!((r.mean_machine_in_bytes() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn wall_clock_includes_recovery() {
        let mut r = report();
        assert_eq!(r.wall_clock_seconds(), r.compute_seconds());
        r.recovery_seconds = 1.5;
        assert!((r.wall_clock_seconds() - 4.5).abs() < 1e-12);
        assert!(
            (r.compute_seconds() - 3.0).abs() < 1e-12,
            "recovery stays out of compute"
        );
    }

    #[test]
    fn cumulative_series_is_monotone() {
        let c = report().cumulative_seconds();
        assert_eq!(c.len(), 2);
        assert!(c[0] < c[1]);
        assert!((c[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_percent_bounded() {
        let cfg = EngineConfig::new(ClusterSpec::local_9());
        let mut r = report();
        r.steps[0].machine_work = vec![1e12, 0.0];
        let cpus = r.machine_cpu_percent(&cfg);
        assert!(cpus[0] <= 100.0);
        assert!(cpus[1] >= 0.0);
    }

    #[test]
    fn more_partitions_than_machines_fold_round_robin() {
        // 4 partitions of one edge (two images) each on 2 machines: machine
        // 0 hosts p0 + p2, machine 1 hosts p1 + p3.
        let g = gp_core::EdgeList::from_pairs(vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
        let parts = (0..4u32).map(gp_core::PartitionId).collect();
        let a = Assignment::from_edge_partitions(&g, parts, 4, 0);
        let cfg = EngineConfig::new(ClusterSpec::local_9().with_machines(2));
        let one = CostRates.machine_bytes(1, 2, 0) as f64;
        assert_eq!(
            base_memory_per_machine(&a, &cfg, 7),
            vec![2.0 * one + 7.0; 2]
        );
    }
}
