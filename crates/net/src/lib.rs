//! # gp-net — unreliable networks and the protocols that survive them
//!
//! The engines in `gp-engine` assume every superstep's exchange completes
//! cleanly; real clusters drop messages. This crate
//! prices what a production messaging layer does about that, in the same
//! deterministic-accounting style as the rest of the repo. Each protocol is
//! one fixed calibration (constants beside the function that prices with
//! them), switched on or off by [`CommsConfig`]:
//!
//! * [`retry`] — a reliable-delivery protocol over flaky links
//!   (`FaultKind::Flaky` windows in a `FaultPlan`). Each superstep's
//!   exchange forms one **ack window**: the receiver acks what arrived at
//!   the barrier, and unacked messages are retransmitted after a
//!   deterministic timeout with capped exponential backoff.
//!   [`expected_retransmissions`] and [`expected_timeout_stall_s`] are
//!   closed-form expectations over the per-message loss probability, so
//!   the same plan always prices to the same bytes — no per-message
//!   simulation, no new randomness.
//! * [`speculate`] — backup tasks for stragglers: when one machine's
//!   projected superstep time exceeds a fixed multiple of the median,
//!   [`plan_speculation`] re-executes its partition's work on the
//!   least-loaded peer and the first finisher wins. The clone's compute and
//!   input shipping are charged to the cluster; the saving is capped by the
//!   straggler's fault penalty so a healthy run can never be undercut.
//!
//! [`CommsConfig`] defaults to both off, preserving the repo-wide contract
//! that inactive models leave reports bit-identical.

pub mod retry;
pub mod speculate;

pub use retry::{contention_loss_rate, expected_retransmissions, expected_timeout_stall_s};
pub use speculate::{plan_speculation, SpeculationOutcome};

/// Communication-layer settings threaded through `EngineConfig`.
///
/// Both protocols default to off: an engine built without touching comms
/// behaves exactly as it did before this crate existed, even when the fault
/// plan schedules flaky windows (they model an idealized network that
/// delivers everything — the pre-protocol baseline).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommsConfig {
    /// Reliable delivery over flaky links ([`retry`]).
    pub retry: bool,
    /// Speculative re-execution of straggling machines' work ([`speculate`]).
    pub speculation: bool,
}

impl CommsConfig {
    /// Everything off (the default).
    pub fn disabled() -> Self {
        CommsConfig::default()
    }

    /// Reliable delivery on, speculation off.
    pub fn reliable() -> Self {
        CommsConfig {
            retry: true,
            speculation: false,
        }
    }

    /// Builder: toggle speculative straggler re-execution.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// True when neither protocol can alter a report.
    pub fn is_disabled(&self) -> bool {
        !self.retry && !self.speculation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_disabled() {
        let c = CommsConfig::default();
        assert!(c.is_disabled());
        assert!(!c.retry);
        assert!(!c.speculation);
        assert_eq!(c, CommsConfig::disabled());
    }

    #[test]
    fn builders_toggle_halves_independently() {
        let c = CommsConfig::reliable();
        assert!(c.retry && !c.speculation);
        let c = CommsConfig::disabled().with_speculation(true);
        assert!(!c.retry && c.speculation);
        assert!(!c.is_disabled());
        assert!(!CommsConfig::reliable().is_disabled());
    }
}
