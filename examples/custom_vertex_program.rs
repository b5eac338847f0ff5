//! Writing your own GAS vertex program and running it on all three engines.
//!
//! The program below computes, for every vertex, the *maximum vertex id
//! reachable by following edges backwards* — a toy analytics kernel that
//! demonstrates the full `VertexProgram` surface: direction selection,
//! gather/merge/apply, activation, and wire-size hints.
//!
//! ```sh
//! cargo run --release --example custom_vertex_program
//! ```

use distgraph::cluster::ClusterSpec;
use distgraph::core::VertexId;
use distgraph::engine::{
    ApplyInfo, Direction, EngineConfig, HybridGas, InitInfo, Pregel, PregelConfig, SyncGas,
    VertexProgram,
};
use distgraph::gen::barabasi_albert;
use distgraph::partition::{PartitionContext, Strategy};

/// Propagate the maximum id along reversed edges.
struct MaxBackward;

impl VertexProgram for MaxBackward {
    type State = u64;
    type Accum = u64;

    fn name(&self) -> &'static str {
        "max-backward"
    }

    // Gather from out-neighbors, push updates to in-neighbors: a natural
    // application in the paper's sense (one direction in, the other out).
    fn gather_direction(&self) -> Direction {
        Direction::Out
    }

    fn scatter_direction(&self) -> Direction {
        Direction::In
    }

    fn init(&self, v: VertexId, _: InitInfo) -> u64 {
        v.0
    }

    fn initially_active(&self, _: VertexId) -> bool {
        true
    }

    // `gather` and `merge` run once per edge (through the trait's provided
    // `accumulate`) and `apply` once per active vertex: `#[inline]` lets them
    // compile into the engine's superstep loop, which lives in another crate.
    #[inline]
    fn gather(&self, _: VertexId, _: VertexId, nbr_state: &u64, _: InitInfo) -> u64 {
        *nbr_state
    }

    #[inline]
    fn merge(&self, a: u64, b: u64) -> u64 {
        a.max(b)
    }

    #[inline]
    fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
        acc.map_or(*old, |a| a.max(*old))
    }

    fn accum_wire_bytes(&self) -> u64 {
        8
    }

    fn state_wire_bytes(&self) -> u64 {
        8
    }
}

fn main() {
    let graph = barabasi_albert(20_000, 6, 11);
    // This program gathers along OUT-edges, so pick the strategy that
    // co-locates out-edges (1D, which hashes by source). Picking a strategy
    // whose co-location direction matches the gather direction is exactly
    // the 1D-vs-1D-Target lesson of the paper's §8.2.3.
    let assignment = Strategy::OneD
        .build()
        .partition(&graph, &PartitionContext::new(9).with_seed(11))
        .assignment;
    let program = MaxBackward;
    println!(
        "program '{}' is natural: {}",
        program.name(),
        program.is_natural()
    );

    // PowerGraph-style synchronous GAS.
    let sync = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
    let (s1, r1) = sync.run(&graph, &assignment, &program);

    // PowerLyra's hybrid engine — same semantics, less gather traffic for
    // this natural program.
    let hybrid = HybridGas::new(EngineConfig::new(ClusterSpec::local_9()));
    let (s2, r2) = hybrid.run(&graph, &assignment, &program);

    // GraphX-style Pregel.
    let pregel = Pregel::new(PregelConfig::new(
        EngineConfig::new(ClusterSpec::local_10()),
    ));
    let (s3, r3) = pregel
        .run(&graph, &assignment, &program)
        .expect("fits in memory");

    assert_eq!(s1, s2, "engines must agree on results");
    assert_eq!(s1, s3, "engines must agree on results");
    println!("all three engines agree on {} vertex states", s1.len());
    println!(
        "gather messages — PowerGraph: {}, PowerLyra: {} ({}% saved by local gather)",
        total_gather(&r1),
        total_gather(&r2),
        (100.0 * (1.0 - total_gather(&r2) as f64 / total_gather(&r1) as f64)) as u32
    );
    println!(
        "simulated compute seconds — sync {:.1}, hybrid {:.1}, pregel {:.1}",
        r1.compute_seconds(),
        r2.compute_seconds(),
        r3.compute_seconds()
    );
}

fn total_gather(r: &distgraph::engine::ComputeReport) -> u64 {
    r.steps.iter().map(|s| s.gather_messages).sum()
}
