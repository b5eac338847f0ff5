//! The engine names the `benchmark/` package calls, each a thin shim over
//! [`Engine`] with the signature it calls there. Nothing else constructs
//! them; they go once the benchmark calls [`Engine`] itself.

use crate::{ComputeReport, Engine, EngineConfig, Model, PregelOom, VertexProgram};
use gp_core::EdgeList;
use gp_partition::Assignment;
use std::sync::Arc;

/// A GAS model's shim: `new` over a configuration, and [`Engine::run`],
/// which a GAS model cannot fail.
macro_rules! gas_shim {
    ($(#[$doc:meta])* $name:ident => $model:expr) => {
        $(#[$doc])*
        pub struct $name(Engine);

        impl $name {
            /// The engine over `config`.
            pub fn new(config: EngineConfig) -> Self {
                $name(Engine::new(config, $model))
            }

            /// [`Engine::run`].
            pub fn run<P: VertexProgram>(
                &self,
                graph: &EdgeList,
                assignment: &Assignment,
                program: &P,
            ) -> (Vec<P::State>, ComputeReport) {
                let run = self.0.run(graph, assignment, program);
                run.expect("a GAS model holds any graph")
            }
        }
    };
}

gas_shim!(/// [`Model::Sync`]: PowerGraph's synchronous engine.
    SyncGas => Model::Sync);
gas_shim!(/// [`Model::Hybrid`]: PowerLyra's hybrid engine.
    HybridGas => Model::Hybrid);
gas_shim!(/// [`Model::Async`]: PowerGraph's asynchronous engine.
    AsyncGas => Model::Async);

/// A [`Pregel`]'s configuration: [`Model::GRAPHX`]'s 8 GiB executors on
/// the base configuration's cluster.
pub struct PregelConfig(EngineConfig);

impl PregelConfig {
    /// 8 GiB executors on `base`'s cluster.
    pub fn new(base: EngineConfig) -> Self {
        PregelConfig(base)
    }
}

/// [`Model::GRAPHX`]: the GraphX engine.
pub struct Pregel(Engine);

impl Pregel {
    /// The engine over `config`.
    pub fn new(config: PregelConfig) -> Self {
        Pregel(Engine::new(config.0, Model::GRAPHX))
    }

    /// [`Engine::run`].
    pub fn run<P: VertexProgram>(
        &self,
        graph: &EdgeList,
        assignment: &Assignment,
        program: &P,
    ) -> Result<(Vec<P::State>, ComputeReport), PregelOom> {
        self.0.run(graph, assignment, program)
    }
}

/// The local edge counts an assignment owns, which every run prices from.
pub struct ReplicaTable(pub Arc<[(u32, u32)]>);

impl ReplicaTable {
    /// [`Assignment::local_edge_counts`] of `assignment`, which placed `graph`.
    pub fn build(graph: &EdgeList, assignment: &Assignment) -> Self {
        ReplicaTable(assignment.local_edge_counts(graph))
    }
}
