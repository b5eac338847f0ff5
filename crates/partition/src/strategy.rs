//! The strategy catalog: Table 1.1 as code.

use crate::partitioner::Partitioner;
use crate::strategies::constrained::pds_order;
use crate::strategies::hash::HashPartitioner;
use crate::strategies::{Hdrf, Hybrid, HybridGinger, Oblivious};

/// The three systems the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// PowerGraph (OSDI'12), chapter 5.
    PowerGraph,
    /// PowerLyra (EuroSys'15), chapter 6.
    PowerLyra,
    /// GraphX (OSDI'14), chapter 7.
    GraphX,
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            System::PowerGraph => "PowerGraph",
            System::PowerLyra => "PowerLyra",
            System::GraphX => "GraphX",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for System {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "powergraph" | "pg" => Ok(System::PowerGraph),
            "powerlyra" | "pl" => Ok(System::PowerLyra),
            "graphx" | "gx" => Ok(System::GraphX),
            other => Err(format!(
                "unknown system {other:?} (powergraph|powerlyra|graphx)"
            )),
        }
    }
}

/// Every partitioning strategy in the thesis (Table 1.1 plus the ports of
/// chapters 8–9 and the new 1D-Target variant).
///
/// ```
/// use gp_partition::{PartitionContext, Strategy};
///
/// let graph = gp_core::EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (0, 3)]);
/// let ctx = PartitionContext::new(4).with_seed(7);
/// for strategy in [Strategy::Random, Strategy::Grid, Strategy::Oblivious] {
///     let outcome = strategy.build().partition(&graph, &ctx);
///     assert!(outcome.assignment.replication_factor() >= 1.0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Canonical random edge hashing (PowerGraph "Random", GraphX
    /// "Canonical Random").
    Random,
    /// Directed random edge hashing (GraphX "Random"; "Assym-Rand" in §8).
    AsymmetricRandom,
    /// Constrained grid hashing.
    Grid,
    /// Constrained perfect-difference-set hashing.
    Pds,
    /// Greedy replication-minimizing heuristic.
    Oblivious,
    /// Greedy high-degree-replicated-first heuristic (λ = 1).
    Hdrf,
    /// Source-vertex hashing.
    OneD,
    /// Target-vertex hashing (the thesis's new variant, §8.2.3).
    OneDTarget,
    /// Source×target grid hashing.
    TwoD,
    /// PowerLyra differentiated hashing (threshold 100).
    Hybrid,
    /// Hybrid plus the Ginger/Fennel refinement phase.
    HybridGinger,
}

impl Strategy {
    /// Every strategy, in the order used by the chapter-8/9 figures.
    pub const ALL: [Strategy; 11] = [
        Strategy::OneD,
        Strategy::TwoD,
        Strategy::AsymmetricRandom,
        Strategy::Grid,
        Strategy::Hdrf,
        Strategy::Hybrid,
        Strategy::HybridGinger,
        Strategy::Oblivious,
        Strategy::Random,
        Strategy::OneDTarget,
        Strategy::Pds,
    ];

    /// PowerGraph's native set (Table 1.1): Random, Grid, Oblivious, HDRF, PDS.
    pub const POWERGRAPH: [Strategy; 5] = [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Oblivious,
        Strategy::Hdrf,
        Strategy::Pds,
    ];

    /// PowerLyra's native set (Table 1.1).
    pub const POWERLYRA: [Strategy; 6] = [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Oblivious,
        Strategy::Hybrid,
        Strategy::HybridGinger,
        Strategy::Pds,
    ];

    /// GraphX's native set (Table 1.1): Random, Canonical Random, 1D, 2D.
    pub const GRAPHX: [Strategy; 4] = [
        Strategy::AsymmetricRandom,
        Strategy::Random,
        Strategy::OneD,
        Strategy::TwoD,
    ];

    /// The nine strategies compared in the PowerLyra-all experiments (§8.2:
    /// everything except PDS, which the paper excludes for machine-count
    /// reasons, plus 1D-Target which is analyzed separately in Fig 8.3).
    pub const POWERLYRA_ALL: [Strategy; 9] = [
        Strategy::OneD,
        Strategy::TwoD,
        Strategy::AsymmetricRandom,
        Strategy::Grid,
        Strategy::Hdrf,
        Strategy::Hybrid,
        Strategy::HybridGinger,
        Strategy::Oblivious,
        Strategy::Random,
    ];

    /// Construct a boxed partitioner with the paper's default parameters.
    /// The seven stateless hash strategies share one partitioner, which
    /// places each edge by the strategy's rule; Grid is always the form
    /// resilient to non-square counts (§9.1).
    pub fn build(self) -> Box<dyn Partitioner> {
        match self {
            Strategy::Oblivious => Box::new(Oblivious),
            Strategy::Hdrf => Box::new(Hdrf::recommended()),
            Strategy::Hybrid => Box::new(Hybrid::default()),
            Strategy::HybridGinger => Box::new(HybridGinger),
            hash => Box::new(HashPartitioner(hash)),
        }
    }

    /// Figure label for this strategy.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Random => "Random",
            Strategy::AsymmetricRandom => "Assym-Rand",
            Strategy::Grid => "Grid",
            Strategy::Pds => "PDS",
            Strategy::Oblivious => "Oblivious",
            Strategy::Hdrf => "HDRF",
            Strategy::OneD => "1D",
            Strategy::OneDTarget => "1D-Target",
            Strategy::TwoD => "2D",
            Strategy::Hybrid => "Hybrid",
            Strategy::HybridGinger => "H-Ginger",
        }
    }

    /// Whether the strategy can run on `n` partitions. Only PDS constrains
    /// the count: 7, 13, 31, 57 or 133, the `p² + p + 1` for the primes
    /// `p ≤ 11` whose difference sets it can build.
    pub fn supports_partition_count(self, n: u32) -> bool {
        match self {
            Strategy::Pds => pds_order(n).is_some(),
            _ => n > 0,
        }
    }

    /// `Err` naming the strategy unless it
    /// [supports](Self::supports_partition_count) `n` partitions.
    pub fn check_partition_count(self, n: u32) -> Result<(), String> {
        if self.supports_partition_count(n) {
            Ok(())
        } else {
            Err(format!("{} cannot run on {n} partitions", self.label()))
        }
    }

    /// The Table 1.1 matrix: each system with its native strategies.
    pub fn catalog() -> Vec<(System, Vec<Strategy>)> {
        vec![
            (System::PowerGraph, Strategy::POWERGRAPH.to_vec()),
            (System::PowerLyra, Strategy::POWERLYRA.to_vec()),
            (System::GraphX, Strategy::GRAPHX.to_vec()),
        ]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let found = Strategy::ALL
            .into_iter()
            .find(|st| st.label().to_ascii_lowercase() == lower);
        match (found, lower.as_str()) {
            (Some(st), _) => Ok(st),
            (None, "canonical-random" | "canonical random") => Ok(Strategy::Random),
            (None, "asymmetric-random" | "asym-rand") => Ok(Strategy::AsymmetricRandom),
            (None, "hybrid-ginger" | "ginger") => Ok(Strategy::HybridGinger),
            _ => {
                let labels: Vec<&str> = Strategy::ALL.iter().map(|st| st.label()).collect();
                Err(format!(
                    "unknown strategy {s:?} (one of {}; aliases canonical-random, \
                     asymmetric-random, hybrid-ginger)",
                    labels.join(", ")
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::PartitionContext;

    #[test]
    fn catalog_matches_table_1_1() {
        let catalog = Strategy::catalog();
        assert_eq!(catalog.len(), 3);
        let (sys, pg) = &catalog[0];
        assert_eq!(*sys, System::PowerGraph);
        assert_eq!(pg.len(), 5);
        assert!(pg.contains(&Strategy::Hdrf));
        let (_, pl) = &catalog[1];
        assert_eq!(pl.len(), 6);
        assert!(pl.contains(&Strategy::HybridGinger));
        let (_, gx) = &catalog[2];
        assert_eq!(gx.len(), 4);
        assert!(gx.contains(&Strategy::TwoD));
        // The thesis's 1D-Target is native to none of the three systems.
        assert!(catalog
            .iter()
            .all(|(_, s)| !s.contains(&Strategy::OneDTarget)));
    }

    #[test]
    fn every_strategy_builds_and_partitions() {
        let g = gp_gen::erdos_renyi(500, 3_000, 1);
        for s in Strategy::ALL {
            let n = if s == Strategy::Pds { 7 } else { 9 };
            let mut p = s.build();
            let out = p.partition(&g, &PartitionContext::new(n));
            assert_eq!(out.assignment.num_edges(), g.num_edges(), "{s}");
            assert!(out.assignment.replication_factor() >= 1.0, "{s}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Strategy::ALL.len());
    }

    /// Serving names its partitioner by `label()` without building it, so
    /// the built partitioner's `name()` must be that same string.
    #[test]
    fn built_partitioner_is_named_by_its_label() {
        for s in Strategy::ALL {
            assert_eq!(s.build().name(), s.label(), "{s:?}");
        }
    }

    #[test]
    fn from_str_accepts_labels_and_aliases() {
        assert_eq!("HDRF".parse::<Strategy>().unwrap(), Strategy::Hdrf);
        assert_eq!("hdrf".parse::<Strategy>().unwrap(), Strategy::Hdrf);
        assert_eq!(
            "1D-Target".parse::<Strategy>().unwrap(),
            Strategy::OneDTarget
        );
        assert_eq!(
            "ginger".parse::<Strategy>().unwrap(),
            Strategy::HybridGinger
        );
        assert_eq!(
            "canonical-random".parse::<Strategy>().unwrap(),
            Strategy::Random
        );
        let err = "bogus".parse::<Strategy>().unwrap_err();
        assert!(
            err.contains("\"bogus\"") && err.contains("1D-Target"),
            "{err}"
        );
        assert!(err.contains("hybrid-ginger"), "{err}");
    }

    #[test]
    fn systems_parse_by_name_and_initials() {
        assert_eq!("PowerLyra".parse(), Ok(System::PowerLyra));
        assert_eq!("gx".parse(), Ok(System::GraphX));
        let err = "giraph".parse::<System>().unwrap_err();
        assert!(err.contains("powergraph|powerlyra|graphx"), "{err}");
    }

    #[test]
    fn pds_partition_count_gate() {
        assert!(Strategy::Pds.supports_partition_count(7));
        assert!(Strategy::Pds.supports_partition_count(13));
        assert!(!Strategy::Pds.supports_partition_count(9));
        assert!(Strategy::Grid.supports_partition_count(10)); // resilient
        assert_eq!(Strategy::Pds.check_partition_count(7), Ok(()));
        let err = Strategy::Pds.check_partition_count(9).unwrap_err();
        assert_eq!(err, "PDS cannot run on 9 partitions");
    }

    /// PDS accepts exactly the orders whose difference set it can build:
    /// not p = 13 (183, a search that does not finish), and not the counts
    /// `p² + p + 1` reaches by wrapping in 32 bits (p = 65537, 65539).
    #[test]
    fn pds_accepts_only_buildable_orders() {
        for n in [7, 13, 31, 57, 133] {
            assert!(Strategy::Pds.supports_partition_count(n), "{n}");
        }
        for n in [183, 196_611, 458_765] {
            assert!(!Strategy::Pds.supports_partition_count(n), "{n}");
        }
    }
}
