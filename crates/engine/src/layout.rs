//! Everything an engine run needs that does not depend on the vertex
//! program, built once per (graph, assignment, cluster size) and shared by
//! every run over that partitioning.

use crate::replicas::{sweep, ReplicaTable};
use gp_core::{CsrGraph, EdgeList, VertexId};
use gp_partition::Assignment;

/// CSR adjacency, replica table, and the partition→machine fold resolved
/// for one machine count; engines only ever read it.
#[derive(Debug, Clone)]
pub struct Layout {
    csr: CsrGraph,
    table: ReplicaTable,
    /// Machine hosting each partition (round-robin fold).
    machine_of: Vec<u32>,
    /// Machine hosting each vertex's master.
    master_machine: Vec<u32>,
    machines: u32,
}

impl Layout {
    /// Lay `assignment` of `graph` out on `machines` machines, in one fused
    /// sweep.
    pub fn build(graph: &EdgeList, assignment: &Assignment, machines: u32) -> Self {
        assert!(machines > 0, "a cluster has at least one machine");
        let (table, csr) = sweep::<true>(graph, assignment);
        let n = graph.num_vertices();
        Layout {
            csr: csr.expect("the adjacency sweep returns the graph"),
            machine_of: (0..assignment.num_partitions())
                .map(|p| p % machines)
                .collect(),
            master_machine: (0..n)
                .map(|v| table.master_of(VertexId(v)).0 % machines)
                .collect(),
            table,
            machines,
        }
    }

    /// The graph's adjacency.
    #[inline]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The replica table.
    #[inline]
    pub fn replicas(&self) -> &ReplicaTable {
        &self.table
    }

    /// Machine count the partition→machine fold was resolved for.
    #[inline]
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// Machine hosting partition `p`.
    #[inline]
    pub(crate) fn machine_of(&self, p: u32) -> usize {
        self.machine_of[p as usize] as usize
    }

    /// Machine hosting the master of vertex `v`.
    #[inline]
    pub(crate) fn master_machine(&self, v: usize) -> usize {
        self.master_machine[v] as usize
    }
}
