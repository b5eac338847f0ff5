//! Reliable delivery over lossy links: ack windows, timeouts, backoff.
//!
//! The protocol being modeled is the standard one: each superstep's
//! exchange is one ack window; a sender keeps every message buffered until
//! the receiver acks it, and retransmits on a timeout that doubles (capped)
//! with each attempt. Rather than simulating individual messages we charge
//! the *expectation* of that process, which keeps the model deterministic
//! and exactly zero-cost on a clean link:
//!
//! * a message is retransmitted at attempt `k` with probability `p^k`
//!   (every earlier copy was lost), so the expected number of extra
//!   transmissions per message is `Σ_{k=1..A-1} p^k` — `0` when `p = 0`,
//!   strictly increasing in `p`;
//! * each retransmission wave is preceded by its timeout, so the expected
//!   stall charged to the barrier is `Σ_{k=1..A-1} p^k · timeout(k-1)`
//!   with `timeout(i) = min(base · backoff^i, max)`.
//!
//! After `MAX_ATTEMPTS` the protocol gives up and the superstep's barrier
//! recovers the message with the next global resynchronization — the
//! residual loss `p^A` is not priced further.

/// Total transmission attempts per message (first send included).
const MAX_ATTEMPTS: u32 = 5;
/// Timeout before the first retransmission, seconds.
const BASE_TIMEOUT_S: f64 = 0.05;
/// Multiplier applied to the timeout after each failed attempt.
const BACKOFF: f64 = 2.0;
/// Cap on any single timeout, seconds.
const MAX_TIMEOUT_S: f64 = 1.0;

/// Timeout preceding retransmission attempt `retry` (0-based), seconds:
/// `min(base · backoff^retry, max)`.
fn timeout_s(retry: u32) -> f64 {
    (BASE_TIMEOUT_S * BACKOFF.powi(retry as i32)).min(MAX_TIMEOUT_S)
}

/// Expected extra transmissions per message on a link with per-message
/// loss probability `loss`: `Σ_{k=1..A-1} loss^k`. Exactly 0.0 at
/// `loss = 0`, monotonically increasing in `loss`.
pub fn expected_retransmissions(loss: f64) -> f64 {
    let loss = loss.clamp(0.0, 1.0);
    let mut p = 1.0;
    let mut extra = 0.0;
    for _ in 1..MAX_ATTEMPTS {
        p *= loss;
        extra += p;
    }
    extra
}

/// Expected timeout stall per message, seconds: each retransmission wave
/// waits out its (backed-off, capped) timer first.
pub fn expected_timeout_stall_s(loss: f64) -> f64 {
    let loss = loss.clamp(0.0, 1.0);
    let mut p = 1.0;
    let mut stall = 0.0;
    for k in 1..MAX_ATTEMPTS {
        p *= loss;
        stall += p * timeout_s(k - 1);
    }
    stall
}

/// Per-message loss probability induced by multi-tenant contention: each of
/// the `active_tenants - 1` co-tenants independently collides with a message
/// with probability `per_tenant_loss` (a switch-buffer drop under shared
/// NICs), so the composed rate is `1 - (1 - l)^(k-1)` — exactly 0.0 for a
/// sole tenant, monotone in both arguments, clamped like every link rate.
/// gp-elastic's `TenantScheduler` feeds this into the retry closed forms
/// ([`expected_retransmissions`], [`expected_timeout_stall_s`]) to price
/// interference.
pub fn contention_loss_rate(active_tenants: u32, per_tenant_loss: f64) -> f64 {
    if active_tenants <= 1 {
        return 0.0;
    }
    let l = per_tenant_loss.clamp(0.0, 1.0);
    1.0 - (1.0 - l).powi(active_tenants as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_costs_exactly_nothing() {
        assert_eq!(expected_retransmissions(0.0), 0.0);
        assert_eq!(expected_timeout_stall_s(0.0), 0.0);
    }

    #[test]
    fn costs_are_monotone_in_loss() {
        let rates = [0.0, 0.01, 0.05, 0.1, 0.3, 0.6, 0.9];
        for w in rates.windows(2) {
            assert!(expected_retransmissions(w[0]) < expected_retransmissions(w[1]));
            assert!(expected_timeout_stall_s(w[0]) < expected_timeout_stall_s(w[1]));
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        assert!((timeout_s(0) - 0.05).abs() < 1e-12);
        assert!((timeout_s(1) - 0.10).abs() < 1e-12);
        assert!((timeout_s(2) - 0.20).abs() < 1e-12);
        assert_eq!(timeout_s(10), 1.0, "capped at MAX_TIMEOUT_S");
        assert_eq!(timeout_s(60), 1.0, "no overflow blowup");
    }

    #[test]
    fn expectations_match_closed_form() {
        // Five attempts: Σ_{k=1..4} 0.5^k = 0.9375; the four waves wait
        // 0.05, 0.1, 0.2 and 0.4 s, each weighted by its 0.5^k, so every
        // wave stalls 0.025 s.
        assert!((expected_retransmissions(0.5) - 0.9375).abs() < 1e-12);
        assert!((expected_timeout_stall_s(0.5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn contention_is_free_alone_and_monotone_in_tenants() {
        assert_eq!(contention_loss_rate(0, 0.1), 0.0);
        assert_eq!(contention_loss_rate(1, 0.1), 0.0);
        let rates: Vec<f64> = (1..6).map(|k| contention_loss_rate(k, 0.1)).collect();
        for w in rates.windows(2) {
            assert!(w[0] < w[1], "more tenants must contend more: {rates:?}");
        }
        assert!((contention_loss_rate(2, 0.1) - 0.1).abs() < 1e-12);
        assert!((contention_loss_rate(3, 0.1) - 0.19).abs() < 1e-12);
        assert_eq!(contention_loss_rate(5, 2.0), 1.0, "clamped");
    }

    #[test]
    fn out_of_range_loss_is_clamped() {
        assert_eq!(expected_retransmissions(1.5), expected_retransmissions(1.0));
        assert_eq!(expected_retransmissions(-0.5), 0.0);
        assert!(expected_retransmissions(1.0).is_finite());
        assert!(expected_timeout_stall_s(1.0).is_finite());
    }
}
