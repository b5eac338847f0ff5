//! The scale-out decision: re-partition or ride the old assignment?
//!
//! When machines join mid-job the old assignment still works — every
//! partition keeps its home, the newcomers just idle — but every remaining
//! barrier leaves the new capacity unused. Re-partitioning (replaying the
//! checkpointed edge stream onto the wider cluster) captures the speedup
//! and pays an ingress-sized bill up front. Whether that bill amortizes
//! depends on exactly the quantities the paper keeps measuring: how many
//! supersteps remain (app), and how much replication the strategy creates
//! (re-ingress is priced per image). [`RepairPolicy::CostBased`] makes the
//! serve-style call: repartition iff projected savings exceed the priced
//! cost.

/// Policy deciding whether a scale-out re-places partitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum RepairPolicy {
    /// Always replay the edge stream onto the new machine set.
    AlwaysRepartition,
    /// Never re-place; accept degraded balance on the old assignment.
    NeverRepartition,
    /// Repartition iff the projected savings exceed the priced cost.
    #[default]
    CostBased,
}

impl RepairPolicy {
    /// Decide, given the projected barrier-time savings over the remaining
    /// supersteps and the priced re-ingress cost (both seconds).
    pub fn should_repartition(&self, savings_s: f64, reingress_s: f64) -> bool {
        match *self {
            RepairPolicy::AlwaysRepartition => true,
            RepairPolicy::NeverRepartition => false,
            RepairPolicy::CostBased => savings_s > reingress_s,
        }
    }

    /// Short label for tables and spans.
    pub fn label(&self) -> &'static str {
        match self {
            RepairPolicy::AlwaysRepartition => "always",
            RepairPolicy::NeverRepartition => "never",
            RepairPolicy::CostBased => "cost-based",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policies_ignore_the_numbers() {
        assert!(RepairPolicy::AlwaysRepartition.should_repartition(0.0, 1e9));
        assert!(!RepairPolicy::NeverRepartition.should_repartition(1e9, 0.0));
    }

    #[test]
    fn cost_based_flips_at_the_biased_break_even() {
        let p = RepairPolicy::default();
        assert!(p.should_repartition(10.0, 5.0));
        assert!(!p.should_repartition(5.0, 10.0));
        assert!(!p.should_repartition(5.0, 5.0), "ties ride the old layout");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RepairPolicy::default().label(), "cost-based");
        assert_eq!(RepairPolicy::AlwaysRepartition.label(), "always");
        assert_eq!(RepairPolicy::NeverRepartition.label(), "never");
    }
}
